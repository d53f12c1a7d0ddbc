// Reference set-associative LRU cache for cross-checking the sweep.
//
// Deliberately written apart from src/cachesim: each set is a recency-
// ordered list of line tags (most recent first) instead of per-line
// timestamps, so the two simulators share no code and agree only if both
// implement true LRU with write-allocate.  A read and a write count alike.
#pragma once
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

class RefLru {
 public:
  RefLru(std::uint64_t size_bytes, std::uint64_t line_bytes,
         std::uint64_t assoc)
      : line_bytes_(line_bytes), assoc_(assoc) {
    if (line_bytes == 0 || assoc == 0 || size_bytes % (line_bytes * assoc))
      throw std::invalid_argument("RefLru: bad geometry");
    sets_.resize(size_bytes / (line_bytes * assoc));
  }

  /// One access; returns true on a hit.
  bool access(std::uint64_t addr) {
    ++accesses_;
    const std::uint64_t line = addr / line_bytes_;
    std::vector<std::uint64_t>& set = sets_[line % sets_.size()];
    auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
      std::rotate(set.begin(), it, it + 1);  // move to the front
      return true;
    }
    ++misses_;
    if (set.size() == assoc_) set.pop_back();  // evict the least recent
    set.insert(set.begin(), line);
    return false;
  }

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  std::uint64_t line_bytes_;
  std::uint64_t assoc_;
  std::vector<std::vector<std::uint64_t>> sets_;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace perfbench
