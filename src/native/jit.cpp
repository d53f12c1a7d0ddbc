#include "native/jit.hpp"

#include <dlfcn.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "ir/error.hpp"

namespace blk::native {

namespace {

/// First line of `cmd`'s stdout, or "" when the command fails.
std::string first_line_of(const std::string& cmd) {
  std::FILE* pipe = ::popen((cmd + " 2>/dev/null").c_str(), "r");
  if (!pipe) return "";
  char buf[512] = {0};
  std::string line;
  if (std::fgets(buf, sizeof buf, pipe)) line = buf;
  int rc = ::pclose(pipe);
  if (rc != 0) return "";
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

struct Probe {
  bool ok = false;
  Toolchain tc;
};

const Probe& probe() {
  static const Probe p = [] {
    Probe r;
    const char* env_cc = std::getenv("BLK_NATIVE_CC");
    r.tc.cc = env_cc && *env_cc ? env_cc : "cc";
    r.tc.version = first_line_of(r.tc.cc + " --version");
    if (r.tc.version.empty()) return r;  // no usable compiler
    // -ffp-contract=off keeps a*b+c as two IEEE operations so native
    // results stay bit-identical to the VM even with -march=native FMA.
    // -pthread is unconditional: serial kernels ignore it and parallel
    // kernels (EmitOptions::parallel) link their fork-join pool with it.
    r.tc.flags = {"-O2", "-fPIC", "-shared", "-ffp-contract=off",
                  "-pthread"};
    const char* march = std::getenv("BLK_NATIVE_MARCH");
    if (march && *march)
      r.tc.flags.push_back(std::string("-march=") + march);
    // Extra flags for the emitted kernels themselves (e.g. CI compiles
    // them with -fsanitize=thread so TSAN sees into the pool).  Folded
    // into Toolchain::id(), so instrumented objects never alias clean
    // cache entries.
    if (const char* extra = std::getenv("BLK_NATIVE_EXTRA_CFLAGS");
        extra && *extra) {
      std::istringstream is(extra);
      std::string flag;
      while (is >> flag) r.tc.flags.push_back(flag);
    }
    r.ok = true;
    return r;
  }();
  return p;
}

bool g_forced_off = false;

}  // namespace

std::string Toolchain::id() const {
  std::ostringstream os;
  os << version;
  for (const auto& f : flags) os << ' ' << f;
  return os.str();
}

Toolchain Toolchain::hot() const {
  // Measured on the LU kernels: -O3 alone helps point LU but regresses
  // blocked LU under gcc's vectorizer; adding -funroll-loops wins on both.
  Toolchain t = *this;
  for (auto& f : t.flags)
    if (f == "-O2") f = "-O3";
  t.flags.push_back("-funroll-loops");
  return t;
}

std::string Toolchain::command(const std::string& src,
                               const std::string& out) const {
  std::ostringstream os;
  os << cc;
  for (const auto& f : flags) os << ' ' << f;
  os << " -o '" << out << "' '" << src << "' -lm";
  return os.str();
}

const Toolchain* toolchain() {
  if (g_forced_off) return nullptr;
  const Probe& p = probe();
  return p.ok ? &p.tc : nullptr;
}

bool available() { return toolchain() != nullptr; }

void force_unavailable_for_testing(bool off) { g_forced_off = off; }

Module::Module(std::string so_path) : path_(std::move(so_path)) {
  const auto t0 = std::chrono::steady_clock::now();
  handle_ = ::dlopen(path_.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle_) {
    const char* why = ::dlerror();
    throw Error("native: dlopen failed for " + path_ +
                (why ? std::string(": ") + why : ""));
  }
  load_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

Module::~Module() {
  if (handle_) ::dlclose(handle_);
}

Module::Module(Module&& other) noexcept
    : handle_(other.handle_),
      path_(std::move(other.path_)),
      load_seconds_(other.load_seconds_) {
  other.handle_ = nullptr;
}

Module& Module::operator=(Module&& other) noexcept {
  if (this != &other) {
    if (handle_) ::dlclose(handle_);
    handle_ = other.handle_;
    path_ = std::move(other.path_);
    load_seconds_ = other.load_seconds_;
    other.handle_ = nullptr;
  }
  return *this;
}

void* Module::sym(const std::string& name) const {
  return ::dlsym(handle_, name.c_str());
}

}  // namespace blk::native
