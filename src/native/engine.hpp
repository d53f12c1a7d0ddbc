// The native execution backend: IR program -> emitted C -> host-compiled
// shared object -> direct call.
//
// A Kernel compiles one Program through the kernel cache and binds the
// uniform `<fn>_entry` symbol.  Unlike the bytecode VM — which lowers per
// (program, parameter binding) — the emitted C keeps parameters symbolic,
// so one compile serves every N and the on-disk cache amortizes across
// processes and sessions.  Callers marshal state through the same
// ordering contract emit_c's entry wrapper uses: parameter values in
// declaration order, array base pointers in array-name order, scalars in
// scalar-name order (the interp::ExecEngine facade does this binding
// against a Store).
//
// Every compile/load/run is timed and aggregated in a process-wide stats
// registry (stats(), stats_json()) so tools can surface per-kernel JIT
// cost next to their other observability output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/codegen.hpp"
#include "ir/program.hpp"
#include "native/cache.hpp"
#include "native/jit.hpp"

namespace blk::native {

/// The fixed signature emit_c's entry wrapper exports.
using EntryFn = void (*)(const long* params, double* const* arrays,
                         double* scalars);

/// The guard symbol a specialized kernel exports (see
/// ir::GuardOptions): 0 when every assumption holds, else the 1-based
/// index of the first failing guard.
using GuardFn = long (*)(const long* params, double* const* arrays);

/// Per-kernel JIT observability record.
struct KernelTimings {
  std::string key;      ///< cache key (hex)
  std::string fn;       ///< emitted function name
  std::string variant;  ///< assumption-set hash ("" = generic kernel)
  bool cache_hit = false;
  double compile_seconds = 0.0;
  double load_seconds = 0.0;
  std::uint64_t runs = 0;
  double run_seconds = 0.0;
  std::uint64_t guard_fails = 0;  ///< entry-guard rejections of this variant
};

/// One compiled program.  Construction emits C, compiles (or reuses the
/// cached object) and resolves the entry point; throws blk::Error when no
/// toolchain is available or compilation fails.
///
/// A non-null `parallel` plan with loops makes the emitted C run those
/// loops on the in-kernel thread pool (see ir::EmitOptions::parallel).
/// The plan's summary is stamped into the source header, so serial and
/// parallel variants of the same program — and different thread-count
/// strategies — occupy distinct cache entries and coexist on disk.
class Kernel {
 public:
  /// `guards` non-null (and enabled) makes the emitted unit export a
  /// guard function checked by check_guards; `variant` is the
  /// assumption-set hash keying this specialized build in the cache
  /// (generic kernels leave it empty).  A guarded build is a specialized
  /// one, and it compiles with the hot flags (-O3 -funroll-loops in
  /// place of -O2; see Toolchain::hot); every other build keeps the
  /// toolchain's own flags.  The flags are part of the toolchain id, so
  /// the two flag sets occupy distinct cache entries.
  explicit Kernel(const ir::Program& p,
                  const std::string& fn_name = "blk_kernel",
                  KernelCache* cache = nullptr,
                  const ir::ParallelOptions* parallel = nullptr,
                  const ir::GuardOptions* guards = nullptr,
                  const std::string& variant = "");

  /// Invoke the compiled code.  `params` / `arrays` / `scalars` follow
  /// the declaration-order contract above; the scalar block is read at
  /// entry and written back at return (VM sync semantics).
  void call(const long* params, double* const* arrays, double* scalars);

  /// Check entry guards without running the body: 0 when every assumption
  /// holds for this binding (or the kernel is unguarded), else the
  /// 1-based failing-guard index.  A failure is recorded against this
  /// variant's stats; deciding the fallback (generic kernel / VM) is the
  /// caller's job.
  [[nodiscard]] long check_guards(const long* params,
                                  double* const* arrays);

  [[nodiscard]] bool guarded() const { return guard_ != nullptr; }

  [[nodiscard]] const std::vector<std::string>& param_names() const {
    return param_names_;
  }
  [[nodiscard]] const std::vector<std::string>& array_names() const {
    return array_names_;
  }
  [[nodiscard]] const std::vector<std::string>& scalar_names() const {
    return scalar_names_;
  }

  [[nodiscard]] const std::string& source() const { return source_; }
  [[nodiscard]] const std::string& so_path() const { return so_path_; }
  [[nodiscard]] const KernelTimings& timings() const { return timings_; }

 private:
  std::vector<std::string> param_names_;
  std::vector<std::string> array_names_;
  std::vector<std::string> scalar_names_;
  std::string source_;
  std::string so_path_;
  std::unique_ptr<Module> module_;
  EntryFn entry_ = nullptr;
  GuardFn guard_ = nullptr;
  KernelTimings timings_;
};

/// Compile `programs` in parallel on `workers` threads (0 = hardware
/// concurrency), sharing the kernel cache; per-entry file locks make
/// concurrent identical compiles collapse into one.  Errors are collected
/// and rethrown as one blk::Error after all workers finish.  Use before a
/// benchmark or sweep that will construct Kernels for the same programs:
/// construction then hits the warm cache.
void warm(const std::vector<const ir::Program*>& programs, int workers = 0,
          KernelCache* cache = nullptr);

/// Aggregate JIT counters since process start (or reset_stats()).
struct Stats {
  std::uint64_t kernels = 0;      ///< Kernel constructions
  std::uint64_t compiles = 0;     ///< cache misses that ran the compiler
  std::uint64_t cache_hits = 0;
  std::uint64_t runs = 0;
  std::uint64_t guard_fails = 0;  ///< entry-guard rejections (all variants)
  double compile_seconds = 0.0;
  double load_seconds = 0.0;
  double run_seconds = 0.0;
};

[[nodiscard]] Stats stats();
void reset_stats();

/// Per-kernel records accumulated since reset_stats().
[[nodiscard]] std::vector<KernelTimings> kernel_stats();

/// The whole registry as a JSON object:
///   {"compiles": 2, "cache_hits": 5, ..., "guard_fails": 0,
///    "kernels": [{..., "variant": "", "guard_fails": 0}, ...]}
[[nodiscard]] std::string stats_json();

}  // namespace blk::native
