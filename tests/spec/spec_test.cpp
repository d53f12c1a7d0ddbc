// The specialization subsystem's contract: assumption sets serialize
// canonically (their hash keys the kernel cache), the specializer's
// rewrite is bit-exact against the original program on every legal
// binding, provably-dead remainder loops actually disappear, and the
// emitted entry guards accept exactly the bindings the assumptions
// describe — wrong-N, non-divisible and aliasing bindings are each
// caught by the right guard code — and only guarded builds take the hot
// compiler flags.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "interp/vm.hpp"
#include "ir/builder.hpp"
#include "ir/codegen.hpp"
#include "ir/error.hpp"
#include "ir/printer.hpp"
#include "kernels/ir_kernels.hpp"
#include "native/engine.hpp"
#include "pm/runner.hpp"
#include "spec/assumptions.hpp"
#include "spec/specialize.hpp"
#include "testutil.hpp"

namespace blk::spec {
namespace {

using namespace blk::ir::dsl;

/// Arrays and scalars bitwise identical between two stores.
void expect_bitwise_equal(const interp::Store& a, const interp::Store& b) {
  ASSERT_EQ(a.arrays.size(), b.arrays.size());
  for (const auto& [name, ta] : a.arrays) {
    const interp::Tensor& tb = b.arrays.at(name);
    ASSERT_EQ(ta.size(), tb.size()) << name;
    EXPECT_EQ(std::memcmp(ta.flat().data(), tb.flat().data(),
                          ta.size() * sizeof(double)),
              0)
        << "array " << name << " differs bitwise";
  }
  for (const auto& [name, va] : a.scalars) {
    const double vb = b.scalars.at(name);
    EXPECT_EQ(std::memcmp(&va, &vb, sizeof(double)), 0)
        << "scalar " << name << " differs bitwise";
  }
}

/// Specialize `p` under the full assumption set of `env` and require the
/// result to be bitwise identical to the original on the VM.
SpecializeResult expect_specialized_bit_exact(
    const ir::Program& p, const ir::Env& env, std::uint64_t seed,
    const std::map<std::string, double>& diag_boost = {}) {
  const AssumptionSet as = AssumptionSet::from_binding(p, env);
  SpecializeResult sr = specialize(p, as);
  interp::ExecEngine orig(p, env, interp::Engine::Vm);
  interp::ExecEngine spec(sr.prog, env, interp::Engine::Vm);
  test::seed_inputs(orig, seed, diag_boost);
  test::seed_inputs(spec, seed, diag_boost);
  orig.run();
  spec.run();
  expect_bitwise_equal(orig.store(), spec.store());
  return sr;
}

// ---- AssumptionSet ----------------------------------------------------------

TEST(AssumptionSet, CanonicalIsInsertionOrderIndependent) {
  AssumptionSet a;
  a.pin("N", 26);
  a.pin("KS", 5);
  a.range("M", 1, 100);
  a.no_alias("B", "A");
  AssumptionSet b;
  b.no_alias("A", "B");
  b.range("M", 1, 100);
  b.pin("KS", 5);
  b.pin("N", 26);
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a, b);
}

TEST(AssumptionSet, HashSeparatesDifferentSets) {
  AssumptionSet a;
  a.pin("N", 26);
  AssumptionSet b;
  b.pin("N", 24);
  AssumptionSet c;
  c.pin("KS", 26);
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.hash().size(), 32u) << "128-bit hash as 32 hex chars";
}

TEST(AssumptionSet, FromBindingPinsDerivesDivisibilityAndNoAlias) {
  // DO K = 1, N-1, KS over two arrays: divisible binding derives the
  // KS | N-1 fact, a non-divisible one must not.
  ir::Program p;
  p.param("N");
  p.param("KS");
  p.array("A", {v("N")});
  p.array("B", {v("N")});
  p.add(loop_step("K", c(1), v("N") - 1, v("KS"),
                  assign(lv("A", {v("K")}), a("B", {v("K")}))));

  const AssumptionSet div = AssumptionSet::from_binding(p, {{"N", 26},
                                                           {"KS", 5}});
  EXPECT_EQ(div.pins().at("N"), 26);
  EXPECT_EQ(div.pins().at("KS"), 5);
  EXPECT_NE(div.canonical().find("div{N-1%KS}"), std::string::npos)
      << div.canonical();
  EXPECT_NE(div.canonical().find("na{A!B}"), std::string::npos)
      << div.canonical();

  const AssumptionSet nondiv = AssumptionSet::from_binding(p, {{"N", 24},
                                                              {"KS", 5}});
  EXPECT_NE(nondiv.canonical().find("div{}"), std::string::npos)
      << "23 % 5 != 0 must derive no divisibility fact: "
      << nondiv.canonical();
}

TEST(AssumptionSet, ToGuardsCarriesEveryFactKind) {
  AssumptionSet as;
  as.pin("N", 26);
  as.divides({.param = "N", .add = -1}, {.param = "KS"});
  as.range("KS", 1, 26);
  as.no_alias("A", "B");
  const ir::GuardOptions g = as.to_guards();
  EXPECT_TRUE(g.enabled());
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.describe(1), "N == 26");
  EXPECT_NE(g.summary().find("KS|N-1"), std::string::npos) << g.summary();
}

// ---- The specializer --------------------------------------------------------

TEST(Specialize, BlockedLuRaggedMinsCollapseUnderDivisibleBinding) {
  ir::Program p = kernels::lu_point_ir();
  pm::run_spec(p, "autoblock(b=KS)");
  const std::string before = ir::print(p);
  ASSERT_NE(before.find("MIN(K+KS-1,N-1)"), std::string::npos) << before;

  SpecializeResult sr = expect_specialized_bit_exact(
      p, {{"N", 26}, {"KS", 5}}, 7, {{"A", 26.0}});
  EXPECT_EQ(sr.folded_params, 2);
  const std::string after = ir::print(sr.prog);
  // Every block-edge MIN over the loop counter K resolved; only the
  // genuinely data-dependent MIN(I-1, ...) pivot-edge may survive.
  EXPECT_EQ(after.find("MIN(K"), std::string::npos) << after;
}

TEST(Specialize, BlockedLuKeepsRemainderUnderNonDivisibleBinding) {
  ir::Program p = kernels::lu_point_ir();
  pm::run_spec(p, "autoblock(b=KS)");
  // 23 % 5 != 0: the remainder structure must stay — and stay correct.
  SpecializeResult sr = expect_specialized_bit_exact(
      p, {{"N", 24}, {"KS", 5}}, 11, {{"A", 24.0}});
  EXPECT_EQ(sr.folded_params, 2);
  EXPECT_NE(ir::print(sr.prog).find("MIN("), std::string::npos)
      << "non-divisible binding keeps the ragged edge";
}

TEST(Specialize, UnrollRemainderLoopIsDeletedWhenZeroTrip) {
  // unrolljam(u=4) leaves a `DO I = 1+FLOOR(...)*4, N` remainder loop;
  // when 4 | N its iteration set is empty and the specializer must
  // delete the loop outright, not merely fold its bounds.
  ir::Program p = kernels::stencil2d_ir();
  pm::run_spec(p, "unrolljam(u=4)");
  ASSERT_NE(ir::print(p).find("FLOOR"), std::string::npos)
      << "expected an unroll remainder loop:\n" << ir::print(p);
  const AssumptionSet as = AssumptionSet::from_binding(p, {{"N", 20}});
  SpecializeResult sr = specialize(p, as);
  EXPECT_GE(sr.deleted_loops, 1)
      << "the unroll remainder is zero-trip when 4 | N:\n"
      << ir::print(sr.prog);
  EXPECT_EQ(ir::print(sr.prog).find("FLOOR"), std::string::npos)
      << ir::print(sr.prog);
  expect_specialized_bit_exact(p, {{"N", 20}}, 3);
}

TEST(Specialize, PivotedLuBitExact) {
  // Data-dependent control flow (pivot search, IMAX/TAU scalars): the
  // specializer may fold N but must not disturb IF semantics.
  expect_specialized_bit_exact(kernels::lu_pivot_point_ir(), {{"N", 23}},
                               13);
}

TEST(Specialize, ZeroTripLoopIsDeleted) {
  ir::Program p;
  p.param("N");
  p.array("A", {c(8)});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I")}) * f(2.0))));
  AssumptionSet as;
  as.pin("N", 0);
  SpecializeResult sr = specialize(p, as);
  EXPECT_EQ(sr.deleted_loops, 1);
  EXPECT_TRUE(sr.prog.body.empty()) << ir::print(sr.prog);
  expect_specialized_bit_exact(p, {{"N", 0}}, 5);
}

TEST(Specialize, NegativeStepLoopStaysBitExact) {
  ir::Program p;
  p.param("N");
  p.array("A", {v("N")});
  // Descending prefix product: order matters, so a bounds slip would show.
  p.add(loop_step("I", v("N") - 1, c(1), c(-1),
                  assign(lv("A", {v("I")}),
                         a("A", {v("I")}) * a("A", {v("I") + 1}))));
  SpecializeResult sr = expect_specialized_bit_exact(p, {{"N", 9}}, 17);
  EXPECT_EQ(sr.folded_params, 1);
}

TEST(Specialize, DescendingZeroTripLoopIsDeleted) {
  ir::Program p;
  p.param("N");
  p.array("A", {c(8)});
  p.add(loop_step("I", v("N"), c(5), c(-1),
                  assign(lv("A", {v("I")}), a("A", {v("I")}) * f(2.0))));
  AssumptionSet as;
  as.pin("N", 2);  // DO I = 2, 5, -1 never runs
  SpecializeResult sr = specialize(p, as);
  EXPECT_EQ(sr.deleted_loops, 1);
  EXPECT_TRUE(sr.prog.body.empty()) << ir::print(sr.prog);
}

// ---- Guard emission and the guard ABI ---------------------------------------

TEST(Guards, EmittedSourceCarriesGuardFunctionAndSummary) {
  ir::Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I")}) * f(2.0))));
  AssumptionSet as;
  as.pin("N", 8);
  const ir::GuardOptions g = as.to_guards();
  const std::string c = ir::emit_c(p, "k", {.entry_wrapper = true,
                                            .guards = &g});
  EXPECT_NE(c.find("/* guards: N=8 */"), std::string::npos) << c;
  EXPECT_NE(c.find("long k_guard("), std::string::npos) << c;
  // Unguarded emission is unchanged.
  const std::string plain = ir::emit_c(p, "k", {.entry_wrapper = true});
  EXPECT_EQ(plain.find("_guard"), std::string::npos);
}

TEST(Guards, CompiledGuardRejectsEachViolationWithItsOwnCode) {
  if (!native::available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p;
  p.param("N");
  p.param("KS");
  p.array("A", {c(64)});
  p.array("B", {c(64)});
  p.add(loop("I", c(1), c(8),
             assign(lv("A", {v("I")}), a("B", {v("I")}))));

  ir::GuardOptions g;
  g.param_eq.push_back({.param = "N", .value = 26});      // code 1
  g.divides.push_back({.dividend = {.param = "N", .add = -1},
                       .divisor = {.param = "KS"}});      // code 2
  g.ranges.push_back({.param = "KS", .lo = 1, .hi = 26}); // code 3
  g.noalias.push_back({.a = "A", .b = "B"});              // code 4

  native::Kernel k(p, "blk_kernel", nullptr, nullptr, &g, "test-variant");
  ASSERT_TRUE(k.guarded());

  double a_buf[64] = {0}, b_buf[64] = {0};
  // Parameter marshaling is declaration order: N then KS.
  {
    long params[2] = {26, 5};
    double* arrays[2] = {a_buf, b_buf};
    EXPECT_EQ(k.check_guards(params, arrays), 0) << "all guards hold";
  }
  {
    long params[2] = {24, 5};  // wrong N
    double* arrays[2] = {a_buf, b_buf};
    EXPECT_EQ(k.check_guards(params, arrays), 1);
  }
  {
    long params[2] = {26, 4};  // 25 % 4 != 0
    double* arrays[2] = {a_buf, b_buf};
    EXPECT_EQ(k.check_guards(params, arrays), 2);
  }
  {
    long params[2] = {26, 0};  // zero divisor fails the divides guard too
    double* arrays[2] = {a_buf, b_buf};
    EXPECT_EQ(k.check_guards(params, arrays), 2);
  }
  {
    long params[2] = {26, 5};
    double* arrays[2] = {a_buf, a_buf};  // aliasing binding
    EXPECT_EQ(k.check_guards(params, arrays), 4);
  }
  // Range guard isolated: drop the divides so code 3 is reachable.
  ir::GuardOptions g2;
  g2.ranges.push_back({.param = "KS", .lo = 1, .hi = 26});
  native::Kernel k2(p, "blk_kernel", nullptr, nullptr, &g2,
                    "test-variant-2");
  {
    long params[2] = {26, 27};  // KS out of range
    double* arrays[2] = {a_buf, b_buf};
    EXPECT_EQ(k2.check_guards(params, arrays), 1)
        << "codes are dense per variant";
  }
}

TEST(Guards, SpecializedKernelMatchesVmAndGuardFailIsCounted) {
  if (!native::available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  pm::run_spec(p, "autoblock(b=KS)");
  const ir::Env env{{"N", 26}, {"KS", 5}};
  const AssumptionSet as = AssumptionSet::from_binding(p, env);
  SpecializeResult sr = specialize(p, as);
  ASSERT_TRUE(sr.guards.enabled());

  native::Kernel k(sr.prog, "blk_kernel", nullptr, nullptr, &sr.guards,
                   as.hash());
  const native::Stats before = native::stats();

  interp::ExecEngine vm(p, env, interp::Engine::Vm);
  test::seed_inputs(vm, 21, {{"A", 26.0}});
  vm.run();

  interp::Vm mine(sr.prog, env);
  test::seed_inputs(mine, 21, {{"A", 26.0}});
  std::vector<long> params;
  for (const auto& name : k.param_names())
    params.push_back(env.at(name));
  std::vector<double*> arrays;
  for (const auto& name : k.array_names())
    arrays.push_back(mine.store().arrays.at(name).flat().data());
  ASSERT_EQ(k.check_guards(params.data(), arrays.data()), 0);
  double scalars[1] = {0};
  k.call(params.data(), arrays.data(), scalars);
  expect_bitwise_equal(vm.store(), mine.store());

  // A violating binding is rejected and the per-variant stat ticks.
  std::vector<long> bad = params;
  bad[0] = 24;  // N
  EXPECT_NE(k.check_guards(bad.data(), arrays.data()), 0);
  const native::Stats after = native::stats();
  EXPECT_EQ(after.guard_fails, before.guard_fails + 1);
  EXPECT_EQ(k.timings().guard_fails, 1u);
  EXPECT_EQ(k.timings().variant, as.hash());
}

TEST(Guards, GuardedKernelCompilesWithHotFlagsUnguardedKeepsO2) {
  if (!native::available()) GTEST_SKIP() << "no host C toolchain";
  ir::Program p = kernels::lu_point_ir();
  const ir::Env env{{"N", 12}};
  const AssumptionSet as = AssumptionSet::from_binding(p, env);
  SpecializeResult sr = specialize(p, as);
  ASSERT_TRUE(sr.guards.enabled());
  const native::Toolchain& tc = *native::toolchain();
  const native::Toolchain hot = tc.hot();
  EXPECT_NE(hot.id().find(" -O3 "), std::string::npos) << hot.id();
  EXPECT_NE(hot.id().find(" -funroll-loops"), std::string::npos) << hot.id();
  EXPECT_EQ(hot.id().find(" -O2 "), std::string::npos) << hot.id();
  EXPECT_NE(tc.id().find(" -O2 "), std::string::npos) << tc.id();

  native::Kernel guarded(sr.prog, "blk_kernel", nullptr, nullptr,
                         &sr.guards, as.hash());
  ASSERT_TRUE(guarded.guarded());
  EXPECT_EQ(guarded.timings().key,
            native::KernelCache::hash_key(guarded.source(), hot, as.hash()));

  // The same specialized program without guards is a generic build.
  native::Kernel plain(sr.prog);
  ASSERT_FALSE(plain.guarded());
  EXPECT_EQ(plain.timings().key,
            native::KernelCache::hash_key(plain.source(), tc));
  // Guards that check nothing do not make a build hot either.
  const ir::GuardOptions none;
  native::Kernel disabled(sr.prog, "blk_kernel", nullptr, nullptr, &none);
  ASSERT_FALSE(disabled.guarded());
  EXPECT_EQ(disabled.timings().key, plain.timings().key);
}

TEST(Guards, GuardTermNamingUnknownParamThrows) {
  ir::Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("A", {v("I")}), a("A", {v("I")}) * f(2.0))));
  ir::GuardOptions g;
  g.param_eq.push_back({.param = "BOGUS", .value = 1});
  EXPECT_THROW(
      (void)ir::emit_c(p, "k", {.entry_wrapper = true, .guards = &g}),
      Error);
}

}  // namespace
}  // namespace blk::spec
