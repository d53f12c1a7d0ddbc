// blkbench: the compile and run halves of one perfbench round.
//
//   blkbench compile --workload W --cache-dir D [--traced]
//   blkbench run     --workload W --cache-dir D --seed S --pairs K [--traced]
//   blkbench reference
//
// `compile` takes a lang/ source through the pipeline under translation
// validation, emit_c, the host compiler (into the empty kernel cache D)
// and dlopen, exactly the path blk-opt takes; it times that path and
// writes D/manifest.txt describing the loaded kernel.  With --traced it
// runs the same path one layer at a time and times each layer's public
// entry point from outside.  `run` loads the derived kernel named by the
// manifest, builds the untransformed Point kernel through the same native
// path, times both on inputs generated from the seed and checks every
// output against computations made here, apart from the program.
// `reference` times the hand-coded LU kernels of src/kernels/ at the KS
// selectblock chooses for lu-nopiv.
//
// Each command prints one JSON object as its last line of stdout.  Paths
// are relative to the working directory, which is the repository root.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>
#include <time.h>

#include "interp/trace.hpp"
#include "interp/vm.hpp"
#include "ir/codegen.hpp"
#include "kernels/lu.hpp"
#include "lang/parser.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"
#include "trace/replay.hpp"
#include "trace/synth.hpp"
#include "verify/pipeline.hpp"

#include "lru.hpp"

namespace {

using namespace blk;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CLOCK_MONOTONIC in seconds: the clock run.py reads with
/// time.monotonic(), so it can place this process's marks on its own
/// timeline when it adds up a run's set-up time.
double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string manifest_path(const std::string& cache_dir) {
  return cache_dir + "/manifest.txt";
}

// ---- Workloads ---------------------------------------------------------------

enum class Kind { Lu, LuPivot, Conv };

struct Workload {
  const char* name;
  const char* source;  ///< relative to the repository root
  const char* select;  ///< the selectblock stage ("" when there is none)
  const char* derive;  ///< the stages after it
  Kind kind;
  ir::Env run;         ///< parameter binding of the timed runs
};

/// The sweep's worker count, fixed below the host's core count so the
/// compile's load does not depend on the machine's size.
constexpr const char* kSelect = "selectblock(grid, workers=2)";
constexpr unsigned kReplayWorkers = 2;
/// selectblock's default input seed; the sweep reproduction replays it.
constexpr std::uint64_t kSweepSeed = 42;
const cachesim::CacheConfig kL1{64 * 1024, 64, 4};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"lu-nopiv", "tools/examples/lu.f", kSelect, "autoblockplus(b=KS)",
       Kind::Lu, {{"N", 1000}}},
      {"lu-pivot", "tools/examples/lu_pivot.f", kSelect,
       "autoblockplus(b=KS, commutativity)", Kind::LuPivot, {{"N", 1000}}},
      {"conv", "perfbench/conv.f", "", "optconv(u=4)", Kind::Conv,
       {{"N1", 262143}, {"N2", 255}, {"N3", 262143}}},
  };
  return w;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return w;
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string full_spec(const Workload& w) {
  return *w.select ? std::string(w.select) + "; " + w.derive : w.derive;
}

// ---- JSON output --------------------------------------------------------------

/// `v` as a JSON string literal (control characters become spaces).
std::string quote(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    q += c;
  }
  return q + "\"";
}

/// A flat JSON object built in insertion order.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return raw(k, buf);
  }
  Json& integer(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Json& list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- compile ------------------------------------------------------------------

/// The symbol emit_c's entry wrapper exports for a kernel named
/// "blk_kernel".
constexpr const char* kEntry = "blk_kernel_entry";

/// What `run` needs to call the loaded derived kernel: the shared object
/// and the emit_c entry contract (parameter values in declaration order,
/// arrays and scalars by name in sorted order), plus the sweep evidence
/// the run reproduces.
struct Manifest {
  std::string so;
  std::vector<std::pair<std::string, long>> params;
  std::vector<std::string> arrays;
  std::vector<std::string> scalars;
  bool swept = false;
  long ks = 0;
  long probe = 0;
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << "so " << so << "\n";
    for (const auto& [n, v] : params) out << "param " << n << " " << v << "\n";
    for (const auto& n : arrays) out << "array " << n << "\n";
    for (const auto& n : scalars) out << "scalar " << n << "\n";
    out << "choice " << swept << " " << ks << " " << probe << " " << accesses
        << " " << misses << "\n";
  }

  static Manifest read(const std::string& path) {
    std::istringstream in(read_file(path));
    Manifest m;
    std::string tag;
    while (in >> tag) {
      if (tag == "so") {
        in >> m.so;
      } else if (tag == "param") {
        std::pair<std::string, long> p;
        in >> p.first >> p.second;
        m.params.push_back(p);
      } else if (tag == "array") {
        m.arrays.emplace_back();
        in >> m.arrays.back();
      } else if (tag == "scalar") {
        m.scalars.emplace_back();
        in >> m.scalars.back();
      } else if (tag == "choice") {
        in >> m.swept >> m.ks >> m.probe >> m.accesses >> m.misses;
      } else {
        throw std::runtime_error("manifest: unknown line '" + tag + "'");
      }
    }
    if (m.so.empty())
      throw std::runtime_error("manifest: no kernel in " + path);
    return m;
  }
};

/// Fill the manifest and the result fields every compile reports.
Manifest describe(const Workload& w, const ir::Program& prog,
                  const pm::PipelineContext& ctx, const pm::RunReport& report,
                  const std::string& so, const std::string& c_source,
                  Json& out) {
  Manifest m;
  m.so = so;
  for (const std::string& p : prog.params()) {
    const ir::Env& from = w.run.count(p) ? w.run : ctx.resolved;
    auto it = from.find(p);
    if (it == from.end())
      throw std::runtime_error("derived kernel parameter '" + p +
                               "' has no value");
    m.params.emplace_back(p, it->second);
  }
  for (const auto& [name, decl] : prog.arrays()) m.arrays.push_back(name);
  for (const auto& s : prog.scalars()) m.scalars.push_back(s);

  out.integer("stmts", static_cast<std::uint64_t>(pm::stmt_count(prog.body)))
      .integer("analysis_builds", report.analysis.misses())
      .integer("analysis_hits", report.analysis.hits())
      .integer("c_bytes", c_source.size());
  if (ctx.block_choice) {
    const model::BlockChoice& c = *ctx.block_choice;
    m.swept = c.swept;
    m.ks = c.ks;
    m.probe = c.probe;
    for (const auto& row : c.table)
      if (row.ks == c.ks) {
        m.accesses = row.accesses;
        m.misses = row.misses;
      }
    out.boolean("selected", true)
        .boolean("swept", c.swept)
        .boolean("tolerance_ok", c.swept && c.within_tolerance(0.10))
        .integer("ks", static_cast<std::uint64_t>(c.ks))
        .integer("best_ks", static_cast<std::uint64_t>(c.best_swept_ks))
        .num("chosen_metric", c.chosen_metric)
        .num("best_metric", c.best_swept_metric)
        .integer("candidates", c.table.size())
        .integer("probe", static_cast<std::uint64_t>(c.probe));
  } else {
    out.boolean("selected", false);
  }
  return m;
}


/// The blk-opt path, timed end to end: source text to a callable kernel.
int compile_untraced(const Workload& w, const std::string& source,
                     native::KernelCache& cache, const std::string& manifest) {
  const double started_mono = mono_s();
  const auto t0 = Clock::now();
  lang::CompileResult compiled = lang::compile(source);
  ir::Program& prog = compiled.program;
  const pm::Pipeline pipe = pm::parse_pipeline(full_spec(w));
  pm::PipelineContext ctx(prog);
  ctx.machine = {kL1};
  pm::RunReport report;
  {
    verify::VerifiedPipeline vp(prog);
    report = pm::run_pipeline(pipe, ctx);
    vp.throw_if_failed();
  }
  native::Kernel kernel(prog, "blk_kernel", &cache);
  const double compile_s = since(t0);

  Json out;
  out.num("compile_s", compile_s).num("started_mono", started_mono);
  describe(w, prog, ctx, report, kernel.so_path(), kernel.source(), out)
      .write(manifest);
  std::cout << out.str() << "\n";
  return 0;
}

/// The same path one layer at a time.  Derivation runs twice — on a clone
/// without validation, then on the program under validation — so the
/// validation layer's share is the difference.
int compile_traced(const Workload& w, const std::string& source,
                   native::KernelCache& cache, const std::string& manifest) {
  const auto t0 = Clock::now();
  auto t = Clock::now();
  lang::CompileResult compiled = lang::compile(source);
  const double parse_s = since(t);
  ir::Program& prog = compiled.program;

  t = Clock::now();
  const pm::Pipeline derive = pm::parse_pipeline(w.derive);
  pm::PipelineContext ctx(prog);
  ctx.machine = {kL1};
  // run_pipeline arms commutativity when a stage names it; selectblock
  // must see it armed too, as it does when both stages run as one.
  ctx.commutativity = derive.uses_commutativity();
  if (*w.select) {
    verify::VerifiedPipeline vp(prog);
    (void)pm::run_pipeline(pm::parse_pipeline(w.select), ctx);
    vp.throw_if_failed();
  }
  const double select_s = since(t);

  t = Clock::now();
  {
    ir::Program copy = prog.clone();
    pm::PipelineContext plain(copy, ctx.hints);
    plain.machine = ctx.machine;
    plain.commutativity = ctx.commutativity;
    plain.resolved = ctx.resolved;
    plain.default_block = ctx.default_block;
    (void)pm::run_pipeline(derive, plain);
  }
  const double derive_s = since(t);

  t = Clock::now();
  pm::RunReport report;
  {
    verify::VerifiedPipeline vp(prog);
    report = pm::run_pipeline(derive, ctx);
    vp.throw_if_failed();
  }
  const double derive_verified_s = since(t);

  t = Clock::now();
  const std::string c_source =
      ir::emit_c(prog, "blk_kernel", {.scalar_io = true, .entry_wrapper = true});
  const double emit_s = since(t);

  const native::Toolchain* tc = native::toolchain();
  if (!tc) throw std::runtime_error("no host C toolchain");
  t = Clock::now();
  const native::CompileOutcome built = cache.get_or_compile(c_source, *tc);
  const double cc_s = since(t);

  t = Clock::now();
  native::Module module(built.so_path);
  if (!module.sym(kEntry))
    throw std::runtime_error(std::string("kernel does not export ") + kEntry);
  const double load_s = since(t);
  const double wall_s = since(t0);

  Json out;
  out.num("compile_s", wall_s)
      .num("lang.parse_s", parse_s)
      .num("pm.select_s", select_s)
      .num("pm.derive_s", derive_s)
      .num("verify.validate_s", derive_verified_s - derive_s)
      .num("codegen.emit_s", emit_s)
      .num("native.cc_s", cc_s)
      .num("native.load_s", load_s)
      // The printed layer times add up to this (pm.derive_s +
      // verify.validate_s is the validated derivation); the unvalidated
      // clone run is the tracing's own cost.
      .num("layers_s", parse_s + select_s + derive_verified_s + emit_s +
                           cc_s + load_s);
  describe(w, prog, ctx, report, built.so_path, c_source, out).write(manifest);
  std::cout << out.str() << "\n";
  return 0;
}

// ---- run ----------------------------------------------------------------------

/// splitmix64: the benchmark's own input generator.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

/// The generated inputs of one workload: arrays by name (column-major,
/// shaped by the original program's declarations) and scalar values.
struct Inputs {
  std::map<std::string, std::vector<double>> arrays;
  std::map<std::string, double> scalars;
};

Inputs make_inputs(const Workload& w, const ir::Program& original,
                   std::uint64_t seed) {
  Inputs in;
  Rng rng{seed * 0x100000001b3ULL ^ std::hash<std::string>{}(w.name)};
  interp::Store shape = interp::make_store(original, w.run);
  for (auto& [name, t] : shape.arrays)
    in.arrays[name].assign(t.flat().begin(), t.flat().end());
  if (w.kind == Kind::Conv) {
    for (auto& [name, v] : in.arrays)
      for (double& x : v) x = rng.uniform(-1.0, 1.0);
    in.scalars["DT"] = rng.uniform(0.5, 1.0);
    return in;
  }
  const long n = w.run.at("N");
  std::vector<double>& a = in.arrays.at("A");
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < n; ++i) {
      double& x = a[static_cast<std::size_t>(j * n + i)];
      x = rng.uniform(-1.0, 1.0);
      // Diagonal dominance makes the unpivoted factorization stable.
      if (w.kind == Kind::Lu && i == j) x = static_cast<double>(n) + 1.0 + x;
    }
  return in;
}

/// A loaded kernel bound to its own working copy of the inputs.
struct Bound {
  native::EntryFn fn = nullptr;
  std::vector<long> params;
  std::vector<std::string> array_names;
  std::vector<std::string> scalar_names;
  std::vector<std::vector<double>> arrays;
  std::vector<double*> ptrs;
  std::vector<double> scalars;

  Bound(native::EntryFn f, std::vector<long> p, std::vector<std::string> an,
        std::vector<std::string> sn, const Inputs& in)
      : fn(f), params(std::move(p)), array_names(std::move(an)),
        scalar_names(std::move(sn)) {
    for (const std::string& n : array_names) {
      auto it = in.arrays.find(n);
      if (it == in.arrays.end())
        throw std::runtime_error("kernel array '" + n +
                                 "' is not an input of the workload");
      arrays.push_back(it->second);
    }
    for (auto& a : arrays) ptrs.push_back(a.data());
    scalars.resize(scalar_names.size());
  }

  /// Restore the inputs, then time one call.
  double run(const Inputs& in) {
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      const std::vector<double>& src = in.arrays.at(array_names[i]);
      std::copy(src.begin(), src.end(), arrays[i].begin());
    }
    for (std::size_t i = 0; i < scalars.size(); ++i) {
      auto it = in.scalars.find(scalar_names[i]);
      scalars[i] = it == in.scalars.end() ? 0.0 : it->second;
    }
    const auto t0 = Clock::now();
    fn(params.data(), ptrs.data(), scalars.data());
    return since(t0);
  }

  [[nodiscard]] const std::vector<double>& array(const std::string& n) const {
    for (std::size_t i = 0; i < array_names.size(); ++i)
      if (array_names[i] == n) return arrays[i];
    throw std::runtime_error("kernel has no array '" + n + "'");
  }
};

constexpr double kEps = std::numeric_limits<double>::epsilon();
/// Residual bound of the LU checks, in units of N*eps.
constexpr double kLuResidualFactor = 8.0;

/// Independent checks of one output.  Returns "" when it passes, else
/// what failed.
class Checker {
 public:
  Checker(const Workload& w, const Inputs& in, std::uint64_t seed) : w_(w) {
    if (w.kind == Kind::Conv) {
      const std::vector<double>& f1 = in.arrays.at("F1");
      const std::vector<double>& f2 = in.arrays.at("F2");
      const std::vector<double>& f3 = in.arrays.at("F3");
      const long double dt = in.scalars.at("DT");
      const long n1 = w.run.at("N1"), n2 = w.run.at("N2"), n3 = w.run.at("N3");
      ref_.resize(static_cast<std::size_t>(n3 + 1));
      bound_.resize(ref_.size());
      for (long i = 0; i <= n3; ++i) {
        long double sum = f3[static_cast<std::size_t>(i)];
        long double mag = std::fabs(sum);
        const long lo = std::max(0L, i - n2), hi = std::min(i, n1);
        for (long k = lo; k <= hi; ++k) {
          const long double term = dt * f1[static_cast<std::size_t>(k)] *
                                   f2[static_cast<std::size_t>(i - k)];
          sum += term;
          mag += std::fabs(term);
        }
        ref_[static_cast<std::size_t>(i)] = sum;
        const double terms = static_cast<double>(std::max(0L, hi - lo + 1));
        bound_[static_cast<std::size_t>(i)] =
            static_cast<double>(2.0L * (terms + 2.0L) * kEps * mag);
        flops_ += 2.0 * terms;
      }
      return;
    }
    n_ = w.run.at("N");
    Rng rng{seed ^ 0x5eed5eedULL};
    x_.resize(static_cast<std::size_t>(n_));
    for (double& v : x_) v = rng.uniform(-1.0, 1.0);
    const std::vector<double>& a = in.arrays.at("A");
    ax_.assign(x_.size(), 0.0L);
    long double norm_a = 0;
    for (long i = 0; i < n_; ++i) {
      long double row = 0;
      for (long j = 0; j < n_; ++j) {
        const double aij = a[static_cast<std::size_t>(j * n_ + i)];
        ax_[static_cast<std::size_t>(i)] += aij * static_cast<long double>(
                                                      x_[static_cast<std::size_t>(j)]);
        row += std::fabs(aij);
      }
      norm_a = std::max(norm_a, row);
    }
    double norm_x = 0;
    for (double v : x_) norm_x = std::max(norm_x, std::fabs(v));
    scale_ = static_cast<double>(norm_a) * norm_x;
    const double nd = static_cast<double>(n_);
    flops_ = 2.0 * nd * nd * nd / 3.0;
    if (w.kind == Kind::LuPivot) {
      sorted_ax_.assign(ax_.begin(), ax_.end());
      std::sort(sorted_ax_.begin(), sorted_ax_.end());
    }
  }

  [[nodiscard]] double flops() const { return flops_; }

  [[nodiscard]] std::string check(const Bound& k) const {
    if (w_.kind == Kind::Conv) {
      const std::vector<double>& f3 = k.array("F3");
      for (std::size_t i = 0; i < ref_.size(); ++i)
        if (!(std::fabs(static_cast<long double>(f3[i]) - ref_[i]) <=
              bound_[i]))
          return "F3(" + std::to_string(i) + ") differs from the direct sum";
      return "";
    }
    const std::vector<double>& a = k.array("A");
    const auto at = [&](long i, long j) {
      return static_cast<long double>(a[static_cast<std::size_t>(j * n_ + i)]);
    };
    // y = U x, then z = L y with L unit lower triangular.
    std::vector<long double> y(x_.size(), 0.0L), z(x_.size(), 0.0L);
    for (long j = 0; j < n_; ++j) {
      const long double xj = x_[static_cast<std::size_t>(j)];
      for (long i = 0; i <= j; ++i) y[static_cast<std::size_t>(i)] += at(i, j) * xj;
    }
    for (long j = 0; j < n_; ++j) {
      const long double yj = y[static_cast<std::size_t>(j)];
      z[static_cast<std::size_t>(j)] += yj;
      for (long i = j + 1; i < n_; ++i) {
        if (w_.kind == Kind::LuPivot && std::fabs(at(i, j)) > 1.0L)
          return "multiplier |L(" + std::to_string(i + 1) + "," +
                 std::to_string(j + 1) + ")| exceeds 1";
        z[static_cast<std::size_t>(i)] += at(i, j) * yj;
      }
    }
    if (w_.kind == Kind::LuPivot) std::sort(z.begin(), z.end());
    const std::vector<long double>& ref =
        w_.kind == Kind::LuPivot ? sorted_ax_ : ax_;
    long double worst = 0;
    for (std::size_t i = 0; i < z.size(); ++i)
      worst = std::max(worst, std::fabs(z[i] - ref[i]));
    const double residual = static_cast<double>(worst) / scale_;
    if (!(residual <= kLuResidualFactor * static_cast<double>(n_) * kEps))
      return "residual " + std::to_string(residual / kEps) +
             " eps exceeds the bound";
    return "";
  }

 private:
  const Workload& w_;
  double flops_ = 0;
  // LU: the probe vector, A0*x (sorted too, for the pivoted check).
  long n_ = 0;
  std::vector<double> x_;
  std::vector<long double> ax_, sorted_ax_;
  double scale_ = 1;
  // Conv: the direct sum per output and its error bound.
  std::vector<long double> ref_;
  std::vector<double> bound_;
};

/// Rebuild the program the sweep measured (the probe clone selectblock
/// blocks with autoblock, the factor a runtime scalar).
ir::Program sweep_program(const Workload& w, const std::string& source) {
  ir::Program p = lang::compile(source).program;
  pm::PipelineContext ctx(p);
  ctx.machine = {kL1};
  ctx.commutativity = pm::parse_pipeline(w.derive).uses_commutativity();
  ir::Loop& focus = ctx.target();
  // selectblock's full-block hint, added before it blocks its clone.
  ctx.hints.assert_le(ir::isub(ir::iadd(ir::ivar(focus.var), ir::ivar("KS")),
                               ir::iconst(1)),
                      focus.ub);
  (void)pm::run_pipeline(pm::parse_pipeline("autoblock(b=KS)"), ctx);
  p.scalar("KS");
  return p;
}

/// Prime a VM engine the way the sweep's recorder does.
void prime(interp::ExecEngine& e, long ks) {
  interp::seed_store(e.store(), kSweepSeed);
  for (auto& [name, value] : e.store().scalars) value = 0.0;
  e.store().scalars["KS"] = static_cast<double>(ks);
}

/// Moves this process from CPU to CPU.  On a shared host, other load can
/// slow one CPU down for minutes while the others run at full speed, and
/// a process left alone stays on the CPU it started on; so each timed
/// pair runs on the next CPU of the process's allowed set in turn, and the
/// fastest sample comes from an uncontended CPU whenever there is one.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
  ~CpuRotation() { (void)sched_setaffinity(0, sizeof allowed_, &allowed_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the process to the `i`-th CPU of the rotation.
  void move_to(std::size_t i) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

struct Counters {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  void record(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(what + ": " + error);
  }
};

int run(const Workload& w, const std::string& source,
        native::KernelCache& cache, std::uint64_t seed, int pairs,
        bool traced) {
  // The program's set-up: load the derived kernel and build the Point
  // kernel through the same native path.  It ends at `ready_mono`; the
  // benchmark's own checks are prepared after it.
  const Manifest m = Manifest::read(manifest_path(cache.dir()));
  native::Module derived_module(m.so);
  auto* derived_fn =
      reinterpret_cast<native::EntryFn>(derived_module.sym(kEntry));
  if (!derived_fn) throw std::runtime_error("derived kernel has no entry");
  std::vector<long> derived_params;
  for (const auto& [name, value] : m.params) derived_params.push_back(value);

  const ir::Program original = lang::compile(source).program;
  native::Kernel point_kernel(original, "blk_kernel", &cache);
  std::vector<long> point_params;
  for (const std::string& p : point_kernel.param_names())
    point_params.push_back(w.run.at(p));
  // The Point kernel runs through the same entry contract as the derived
  // one: a raw call of its loaded entry symbol.
  native::Module point_module(point_kernel.so_path());
  auto* point_fn = reinterpret_cast<native::EntryFn>(point_module.sym(kEntry));
  if (!point_fn) throw std::runtime_error("Point kernel has no entry");
  const double ready_mono = mono_s();

  Counters ops;
  Json out;
  out.num("ready_mono", ready_mono);

  if (w.kind != Kind::Conv) {
    // Reproduce the sweep's L1 counts for the chosen KS with the
    // reference simulator, on the VM's access stream of the sweep's
    // program at its probe size and seed.
    ir::Program sp = sweep_program(w, source);
    ir::Env probe_env;
    for (const std::string& p : sp.params())
      if (p != "KS") probe_env[p] = m.probe;
    perfbench::RefLru lru(kL1.size_bytes, kL1.line_bytes, kL1.assoc);
    {
      interp::ExecEngine vm(sp, probe_env, interp::Engine::Vm);
      prime(vm, m.ks);
      interp::TraceBuffer buf(
          1 << 16, &lru, [](void* c, std::span<const interp::TraceRecord> r) {
            auto* l = static_cast<perfbench::RefLru*>(c);
            for (const interp::TraceRecord& rec : r) l->access(rec.addr);
          });
      vm.run(buf);
      buf.flush();
    }
    std::string err;
    if (!m.swept)
      err = "selectblock ran no sweep";
    else if (lru.accesses() != m.accesses || lru.misses() != m.misses)
      err = "reference LRU counts " + std::to_string(lru.misses()) + "/" +
            std::to_string(lru.accesses()) + " misses/accesses, the sweep " +
            std::to_string(m.misses) + "/" + std::to_string(m.accesses);
    ops.record("sweep reproduction", err);

    if (traced) {
      // The trace layer on its own, as the sweep acquires and replays
      // the chosen candidate's trace.
      auto t = Clock::now();
      trace::EncodedTrace tr;
      {
        trace::TraceEncoder enc(tr);
        if (trace::synth_eligible(sp)) {
          ir::Env env = probe_env;
          env["KS"] = m.ks;
          (void)trace::synthesize(sp, env, enc);
        } else {
          interp::ExecEngine vm(sp, probe_env, interp::Engine::Vm);
          prime(vm, m.ks);
          interp::TraceBuffer buf(1 << 16, &enc, &trace::TraceEncoder::sink);
          vm.run(buf);
          buf.flush();
        }
        enc.finish();
      }
      const double acquire_s = since(t);
      trace::ReplayOptions ro;
      ro.levels = {kL1};
      ro.workers = kReplayWorkers;
      t = Clock::now();
      const trace::ReplayResult rr = trace::replay(tr, ro);
      out.num("trace.acquire_s", acquire_s)
          .integer("trace.records", tr.records)
          .integer("trace.encoded_bytes", tr.bytes.size())
          .num("trace.replay_s", since(t))
          .integer("cachesim.l1_misses", rr.levels[0].misses);
    }
  }

  const Inputs in = make_inputs(w, original, seed);
  const Checker checker(w, in, seed);
  Bound point(point_fn, point_params, point_kernel.array_names(),
              point_kernel.scalar_names(), in);
  Bound derived(derived_fn, derived_params, m.arrays, m.scalars, in);

  std::vector<double> point_s, derived_s;
  const CpuRotation rotation;
  for (int i = 0; i < pairs; ++i) {
    // Inputs are restored after the move, so they are in the new CPU's
    // caches when the call starts.
    rotation.move_to(static_cast<std::size_t>(i));
    // Alternate the order so neither kernel always runs on a cache the
    // other one warmed.
    if (i % 2 == 0) {
      point_s.push_back(point.run(in));
      derived_s.push_back(derived.run(in));
    } else {
      derived_s.push_back(derived.run(in));
      point_s.push_back(point.run(in));
    }
    ops.record("point run", checker.check(point));
    std::string err = checker.check(derived);
    if (err.empty())
      for (const std::string& n : point.array_names) {
        const std::vector<double>& a = point.array(n);
        const std::vector<double>& b = derived.array(n);
        if (a.size() != b.size() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0)
          err = "array " + n + " is not bitwise equal to Point";
      }
    ops.record("derived run", err);
  }

  out.num("flops", checker.flops())
      .list("point_s", point_s)
      .list("derived_s", derived_s)
      .integer("attempted", ops.attempted)
      .integer("failed", ops.failed);
  std::string errs = "[";
  for (std::size_t i = 0; i < ops.errors.size(); ++i)
    errs += (i ? ", " : "") + quote(ops.errors[i]);
  out.raw("errors", errs + "]");
  std::cout << out.str() << "\n";
  return 0;
}

// ---- reference ----------------------------------------------------------------

/// The hand-coded Point and "2+" LU of src/kernels/ on the lu-nopiv input
/// of seed 1, the "2+" at the KS selectblock chooses for lu-nopiv: the
/// rate the derived code should approach.
int reference() {
  constexpr std::uint64_t kSeed = 1;
  constexpr int kReps = 10;
  const Workload& w = find_workload("lu-nopiv");
  const ir::Program original = lang::compile(read_file(w.source)).program;
  const Inputs in = make_inputs(w, original, kSeed);
  long ks = 0;
  {
    ir::Program probe = original.clone();
    pm::PipelineContext ctx(probe);
    ctx.machine = {kL1};
    (void)pm::run_pipeline(pm::parse_pipeline(w.select), ctx);
    if (!ctx.block_choice) throw std::runtime_error("selectblock chose no KS");
    ks = ctx.block_choice->ks;
  }
  const std::size_t n = static_cast<std::size_t>(w.run.at("N"));
  std::vector<double> point_s, opt_s;
  const CpuRotation rotation;
  for (int r = 0; r < kReps; ++r) {
    rotation.move_to(static_cast<std::size_t>(r));
    for (int variant = 0; variant < 2; ++variant) {
      kernels::Matrix a(n, n);
      std::copy(in.arrays.at("A").begin(), in.arrays.at("A").end(),
                a.flat().begin());
      const auto t0 = Clock::now();
      if (variant == 0)
        kernels::lu_point(a);
      else
        kernels::lu_block_opt(a, static_cast<std::size_t>(ks));
      (variant == 0 ? point_s : opt_s).push_back(since(t0));
    }
  }
  const double nd = static_cast<double>(n);
  Json out;
  out.num("flops", 2.0 * nd * nd * nd / 3.0)
      .integer("ks", static_cast<std::uint64_t>(ks))
      .list("hand_point_s", point_s)
      .list("hand_2plus_s", opt_s);
  std::cout << out.str() << "\n";
  return 0;
}

int usage() {
  std::cerr << "usage: blkbench compile --workload NAME --cache-dir DIR "
               "[--traced]\n"
               "       blkbench run --workload NAME --cache-dir DIR --seed S "
               "--pairs K [--traced]\n"
               "       blkbench reference\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opt;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--traced") {
      traced = true;
    } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      opt[a.substr(2)] = argv[++i];
    } else {
      return usage();
    }
  }
  const auto need = [&](const char* k) -> const std::string& {
    auto it = opt.find(k);
    if (it == opt.end()) throw std::runtime_error(std::string("missing --") + k);
    return it->second;
  };
  try {
    if (cmd == "reference") return opt.empty() ? reference() : usage();
    native::KernelCache cache(need("cache-dir"));
    const Workload& w = find_workload(need("workload"));
    const std::string source = read_file(w.source);
    const std::string manifest = manifest_path(cache.dir());
    if (cmd == "compile")
      return traced ? compile_traced(w, source, cache, manifest)
                    : compile_untraced(w, source, cache, manifest);
    if (cmd == "run")
      return run(w, source, cache, std::stoull(need("seed")),
                 std::stoi(need("pairs")), traced);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "blkbench " << cmd << ": " << e.what() << "\n";
    Json out;
    out.str("error", e.what());
    std::cout << out.str() << "\n";
    return 1;
  }
}
