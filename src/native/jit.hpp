// Host-toolchain JIT plumbing: compiler discovery and shared-object
// loading.
//
// The paper's closing argument is that a machine-independent source plus
// compiler technology suffices to port performance.  This module is the
// "compiler technology" half at execution time: it finds the host C
// compiler once per process, compiles emitted C to a position-independent
// shared object, and dlopens the result.  Everything above it (the kernel
// cache, the execution engine) treats a missing toolchain as a soft
// condition — callers fall back to the bytecode VM.
#pragma once

#include <string>
#include <vector>

namespace blk::native {

/// The probed host C toolchain.
struct Toolchain {
  std::string cc;                  ///< compiler command ($BLK_NATIVE_CC or cc)
  std::string version;             ///< first line of `cc --version`
  std::vector<std::string> flags;  ///< -O2 -fPIC -shared -ffp-contract=off...

  /// Stable identity string (version + flags) folded into cache keys so a
  /// compiler or flag change never reuses a stale shared object.
  [[nodiscard]] std::string id() const;

  /// The hot flag set specialized kernels compile with: -O3 in place of
  /// -O2, plus -funroll-loops.  Its id() differs, so hot and generic
  /// objects never alias in the kernel cache.
  [[nodiscard]] Toolchain hot() const;

  /// Full shell command compiling `src` to `out` (stderr not redirected;
  /// callers append their own `2> file`).
  [[nodiscard]] std::string command(const std::string& src,
                                    const std::string& out) const;
};

/// The process-wide toolchain, probed once: nullptr when no usable C
/// compiler is on PATH.  `$BLK_NATIVE_CC` overrides the compiler,
/// `$BLK_NATIVE_MARCH=native` opts into -march=native (the default flag
/// set keeps -ffp-contract=off either way, so native results stay
/// bit-identical to the VM even on FMA hardware), and
/// `$BLK_NATIVE_EXTRA_CFLAGS` appends whitespace-separated flags (CI uses
/// it to build emitted kernels with -fsanitize=thread).  Every knob is
/// part of Toolchain::id() and therefore of the kernel-cache key.
[[nodiscard]] const Toolchain* toolchain();

/// True when toolchain() is usable (and not suppressed for testing).
[[nodiscard]] bool available();

/// Test hook: pretend no toolchain exists, exercising every fallback
/// path.  Not thread-safe; flip only at test setup.
void force_unavailable_for_testing(bool off);

/// A dlopened shared object (RTLD_NOW | RTLD_LOCAL), closed on
/// destruction.  Throws blk::Error when the object cannot be loaded.
class Module {
 public:
  explicit Module(std::string so_path);
  ~Module();
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&& other) noexcept;
  Module& operator=(Module&& other) noexcept;

  /// Resolve a symbol; nullptr when absent.
  [[nodiscard]] void* sym(const std::string& name) const;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] double load_seconds() const { return load_seconds_; }

 private:
  void* handle_ = nullptr;
  std::string path_;
  double load_seconds_ = 0.0;
};

}  // namespace blk::native
