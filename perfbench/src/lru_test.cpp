// Hand-worked access streams for the reference LRU simulator.
// Exit status 0 when every case holds; each failure prints one line.
#include <cstdint>
#include <cstdio>
#include <initializer_list>

#include "lru.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

/// Replay `addrs` and compare the hit/miss sequence against `hits`.
void expect_stream(perfbench::RefLru& c,
                   std::initializer_list<std::uint64_t> addrs,
                   std::initializer_list<bool> hits, const char* what) {
  auto h = hits.begin();
  int i = 0;
  for (std::uint64_t a : addrs) {
    if (c.access(a) != *h) {
      std::printf("FAIL: %s: access %d (addr %llu)\n", what, i,
                  static_cast<unsigned long long>(a));
      ++failures;
      return;
    }
    ++h;
    ++i;
  }
}

}  // namespace

int main() {
  {
    // One set, two ways, 64-byte lines: classic LRU on lines A=0, B=64,
    // C=128.  A B A C (evicts B, the least recent) B (miss, evicts A) A.
    perfbench::RefLru c(128, 64, 2);
    expect_stream(c, {0, 64, 8, 128, 64, 0},
                  {false, false, true, false, false, false},
                  "two-way LRU evicts the least recent line");
    expect(c.accesses() == 6 && c.misses() == 5, "two-way counts");
  }
  {
    // Same line, different bytes: one compulsory miss, then hits.
    perfbench::RefLru c(256, 64, 2);
    expect_stream(c, {0, 8, 56, 63}, {false, true, true, true},
                  "bytes of one line share it");
    expect(c.misses() == 1, "one compulsory miss");
  }
  {
    // Two sets, one way (direct mapped): lines 0 and 2 map to set 0 and
    // conflict; line 1 lives in set 1 and survives.
    perfbench::RefLru c(128, 64, 1);
    expect_stream(c, {0, 64, 128, 64, 0, 128},
                  {false, false, false, true, false, false},
                  "direct-mapped conflicts stay within a set");
    expect(c.accesses() == 6 && c.misses() == 5, "direct-mapped counts");
  }
  {
    // Four ways, a cyclic stream of five lines in one set: LRU misses on
    // every access (the textbook worst case), while four lines all hit.
    perfbench::RefLru c(256, 64, 4);
    for (int round = 0; round < 3; ++round)
      for (std::uint64_t l = 0; l < 5; ++l) c.access(l * 64);
    expect(c.misses() == 15, "cyclic stream one larger than the set");
    perfbench::RefLru d(256, 64, 4);
    for (int round = 0; round < 3; ++round)
      for (std::uint64_t l = 0; l < 4; ++l) d.access(l * 64);
    expect(d.misses() == 4, "cyclic stream that fits the set");
  }
  {
    // A hit refreshes recency: A B C D A E must evict B, not A.
    perfbench::RefLru c(256, 64, 4);
    expect_stream(c, {0, 64, 128, 192, 0, 256, 0, 64},
                  {false, false, false, false, true, false, true, false},
                  "a hit moves the line to the front");
  }
  {
    bool threw = false;
    try {
      perfbench::RefLru bad(100, 64, 4);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    expect(threw, "geometry that does not divide is refused");
  }
  if (failures == 0) std::printf("lru_test: all cases passed\n");
  return failures == 0 ? 0 : 1;
}
