// A6: the specialization pass's measured payoff — the bytecode VM, the
// generic native kernel (symbolic parameters, -O2) and the specialized
// kernel behind its entry guards (parameters pinned, compiled with the
// hot flags -O3 -funroll-loops that every guarded build gets) — on point
// LU N=500 and auto-blocked LU N=501/KS=25 (25 | 500, so specialization
// collapses every block-edge MIN and the remainder structure).
//
// Two claims to hold: the specialized kernel beats the generic native
// build of the same program, and the guard overhead stays under 2%.
// Guard overhead is measured directly — a row timing nothing but the
// entry-guard check, divided by the specialized invocation time — rather
// than by subtracting two multi-millisecond kernel timings, which on a
// busy host is dominated by frequency jitter.
//
// Writes machine-readable results (BENCH_spec.json by default, override
// with --bench_json=<path>).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/benchutil.hpp"
#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "spec/assumptions.hpp"
#include "spec/specialize.hpp"

namespace {

using namespace blk;

struct Case {
  std::string name;
  ir::Program prog;       // generic program, parameters symbolic
  ir::Program spec_prog;  // specialized under `env`
  ir::GuardOptions guards;
  std::string hash;  // assumption-set hash (the cache variant key)
  ir::Env env;
  double diag_boost;  // added to A's diagonal
};

Case make_case(std::string name, ir::Program prog, ir::Env env,
               double diag_boost) {
  Case c{std::move(name), std::move(prog), {}, {}, {}, std::move(env),
         diag_boost};
  const spec::AssumptionSet as =
      spec::AssumptionSet::from_binding(c.prog, c.env);
  spec::SpecializeResult sr = spec::specialize(c.prog, as);
  c.spec_prog = std::move(sr.prog);
  c.guards = std::move(sr.guards);
  c.hash = as.hash();
  return c;
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  cases.push_back(
      make_case("lu_point", kernels::lu_point_ir(), {{"N", 500}}, 3.0));

  // Auto-blocked LU at a divisible binding: KS | N-1, so the specializer
  // resolves MIN(K+KS-1, N-1) everywhere and the kernel runs full blocks
  // only.  (N=500 itself has a prime N-1; 501 keeps the size honest.)
  ir::Program blocked = kernels::lu_point_ir();
  pm::run_spec(blocked, "autoblock(b=KS)");
  cases.push_back(make_case("lu_blocked", std::move(blocked),
                            {{"N", 501}, {"KS", 25}}, 3.0));
  return cases;
}

void seed_store(interp::Store& s, const Case& c) {
  for (auto& [name, t] : s.arrays) {
    std::uint64_t k = 42;
    for (char ch : name)
      k = k * 1099511628211ULL + static_cast<unsigned char>(ch);
    interp::fill_random(t, k);
    if (c.diag_boost != 0.0 && t.rank() == 2) {
      for (long i = t.lower(0); i <= t.upper(0); ++i) {
        if (i < t.lower(1) || i > t.upper(1)) continue;
        std::vector<long> idx{i, i};
        t.at(idx) += c.diag_boost;
      }
    }
  }
}

/// Steady-state measurement loop shared by the ExecEngine rows.
void measure(benchmark::State& st, interp::ExecEngine& e, const Case& c) {
  for (auto _ : st) {
    st.PauseTiming();
    seed_store(e.store(), c);
    st.ResumeTiming();
    e.run();
    benchmark::DoNotOptimize(
        e.store().arrays.begin()->second.flat().data());
  }
}

/// Drive one compiled kernel directly (declaration-order marshaling, as
/// interp::ExecEngine does).  `check` adds the entry guard check in front
/// of every call.
void measure_kernel(benchmark::State& st, native::Kernel& k,
                    interp::Store& store, const Case& c, bool check) {
  std::vector<long> params;
  for (const auto& name : k.param_names()) params.push_back(c.env.at(name));
  std::vector<double*> arrays;
  for (const auto& name : k.array_names())
    arrays.push_back(store.arrays.at(name).flat().data());
  std::vector<double> scalars(k.scalar_names().size() + 1, 0.0);
  for (auto _ : st) {
    st.PauseTiming();
    seed_store(store, c);
    st.ResumeTiming();
    if (check && k.check_guards(params.data(), arrays.data()) != 0) {
      st.SkipWithError("entry guards rejected the benchmark binding");
      return;
    }
    k.call(params.data(), arrays.data(), scalars.data());
    benchmark::DoNotOptimize(arrays[0]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json =
      blk::bench::extract_json_path(argc, argv, "BENCH_spec.json");

  if (!blk::native::available())
    std::fprintf(stderr,
                 "bench_spec: no host C toolchain; the generic row falls "
                 "back to the VM\n");

  std::vector<Case> cases = make_cases();
  const bool native_ok = blk::native::available();
  for (const Case& c : cases) {
    benchmark::RegisterBenchmark(
        (c.name + "/vm").c_str(),
        [&c](benchmark::State& st) {
          interp::ExecEngine e(c.prog, c.env, interp::Engine::Vm);
          measure(st, e, c);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (c.name + "/generic").c_str(),
        [&c](benchmark::State& st) {
          interp::ExecEngine e(c.prog, c.env, interp::Engine::Native);
          measure(st, e, c);
        })
        ->Unit(benchmark::kMillisecond);
    if (!native_ok) continue;
    benchmark::RegisterBenchmark(
        (c.name + "/spec_hot").c_str(),
        [&c](benchmark::State& st) {
          native::Kernel k(c.spec_prog, "blk_kernel", nullptr, nullptr,
                           &c.guards, c.hash);
          interp::ExecEngine store_holder(c.spec_prog, c.env,
                                          interp::Engine::Vm);
          measure_kernel(st, k, store_holder.store(), c, true);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (c.name + "/guard_check").c_str(),
        [&c](benchmark::State& st) {
          native::Kernel k(c.spec_prog, "blk_kernel", nullptr, nullptr,
                           &c.guards, c.hash);
          interp::ExecEngine store_holder(c.spec_prog, c.env,
                                          interp::Engine::Vm);
          std::vector<long> params;
          for (const auto& name : k.param_names())
            params.push_back(c.env.at(name));
          std::vector<double*> arrays;
          for (const auto& name : k.array_names())
            arrays.push_back(
                store_holder.store().arrays.at(name).flat().data());
          for (auto _ : st) {
            long g = k.check_guards(params.data(), arrays.data());
            benchmark::DoNotOptimize(g);
          }
        });
  }

  auto rep = blk::bench::run_all(argc, argv);

  blk::bench::JsonWriter jw(json);
  blk::bench::Table t({"Kernel", "VM", "Generic (-O2)", "Spec hot (-O3)",
                       "Spec vs generic"});
  std::string overhead_json = "{";
  for (const Case& c : cases) {
    const double vm = rep.get(c.name + "/vm");
    const double gen = rep.get(c.name + "/generic");
    const double spec = rep.get(c.name + "/spec_hot");
    t.row({c.name, blk::bench::fmt_time(vm), blk::bench::fmt_time(gen),
           blk::bench::fmt_time(spec),
           blk::bench::fmt_speedup(gen, spec)});
    jw.row(c.name + "/vm", vm);
    jw.row(c.name + "/generic", gen, vm > 0 && gen > 0 ? vm / gen : -1.0);
    jw.row(c.name + "/spec_hot", spec,
           vm > 0 && spec > 0 ? vm / spec : -1.0);
    jw.row(c.name + "/guard_check", rep.get(c.name + "/guard_check"));
    const double check = rep.get(c.name + "/guard_check");
    const double pct =
        check > 0 && spec > 0 ? check / spec * 100.0 : -1.0;
    if (overhead_json.size() > 1) overhead_json += ", ";
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s_pct\": %.6f", c.name.c_str(),
                  pct);
    overhead_json += buf;
  }
  overhead_json += ", \"target_pct\": 2.0}";
  t.print("A6: specialized kernel vs generic native build");

  // Guard overhead: the entry-guard check is the only per-invocation
  // work a guarded call adds over the bare specialized call.
  blk::bench::Table ov({"Kernel", "Guard check", "Spec invocation",
                        "Guard overhead"});
  for (const Case& c : cases) {
    const double check = rep.get(c.name + "/guard_check");
    const double spec = rep.get(c.name + "/spec_hot");
    char chk[32], pct[32];
    std::snprintf(chk, sizeof chk, "%.0f ns", check * 1e9);
    if (check > 0 && spec > 0)
      std::snprintf(pct, sizeof pct, "%.5f%%", check / spec * 100);
    else
      std::snprintf(pct, sizeof pct, "n/a");
    ov.row({c.name, check > 0 ? chk : "n/a", blk::bench::fmt_time(spec),
            pct});
  }
  ov.print("Guard overhead (target < 2%)");

  jw.extra("native", blk::native::stats_json());
  jw.extra("guard_overhead", overhead_json);
  if (jw.write()) std::printf("\nwrote %s\n", json.c_str());
  return 0;
}
