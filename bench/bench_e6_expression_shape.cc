// Experiment E6 — Theorem 4.2 parameter sweep.
//
// Per-append delta-computation cost as a function of the expression shape:
//   * KeyJoinChain(j)  — j stacked key joins: cost ~ j·log|R| (or ~j with
//     hashing); the (u·|R|)^j blow-up does NOT occur in CA_join.
//   * CrossChain(j)    — j stacked cross products with a 32-row relation:
//     output (and cost) grows as |R|^j, the Theorem 4.2 worst case.
//   * UnionFan(u)      — u-way union fan-in: cost linear in u.
// Each shape runs as a compiled DeltaPlan over one retained PlanScratch —
// the engine every maintenance path uses. DeltaStats counters are exported
// so the row counts can be checked against the formulas, not just the
// timings.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.h"
#include "common/random.h"
#include "exec/plan_compiler.h"
#include "storage/chronicle_group.h"

namespace chronicle {
namespace bench {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

Schema RelSchema() {
  return Schema({{"acct", DataType::kInt64}, {"state", DataType::kString}});
}

struct Setup {
  ChronicleGroup group;
  ChronicleId calls;
  std::unique_ptr<Relation> rel;
  Rng rng{17};

  explicit Setup(int64_t rel_rows) {
    calls = Unwrap(group.CreateChronicle("calls", CallSchema(),
                                         RetentionPolicy::None()));
    rel = std::make_unique<Relation>(
        Unwrap(Relation::Make("cust", RelSchema(), "acct")));
    for (int64_t i = 0; i < rel_rows; ++i) {
      Check(rel->Insert(Tuple{Value(i), Value("NJ")}));
    }
  }

  CaExprPtr Scan() {
    return Unwrap(CaExpr::Scan(*Unwrap(group.GetChronicle(calls))));
  }

  AppendEvent NextEvent(int64_t key_bound) {
    return Unwrap(group.Append(
        calls, {Tuple{Value(static_cast<int64_t>(rng.Uniform(
                          static_cast<uint64_t>(key_bound)))),
                      Value("NJ"), Value(1)}}));
  }
};

void ReportStats(benchmark::State& state, const DeltaStats& stats,
                 int64_t iterations) {
  state.counters["rows_per_delta"] =
      static_cast<double>(stats.total_rows_produced) /
      static_cast<double>(iterations);
  state.counters["max_intermediate_rows"] =
      static_cast<double>(stats.max_intermediate_rows);
}

void KeyJoinChain(benchmark::State& state) {
  const int64_t j = state.range(0);
  Setup setup(100000);
  CaExprPtr plan = setup.Scan();
  for (int64_t i = 0; i < j; ++i) {
    plan = Unwrap(CaExpr::RelKeyJoin(plan, setup.rel.get(), "caller"));
  }
  exec::DeltaPlanPtr compiled = Unwrap(exec::CompileDeltaPlan(plan));
  exec::PlanScratch scratch;
  DeltaStats stats;
  for (auto _ : state) {
    AppendEvent event = setup.NextEvent(100000);
    auto delta = compiled->Execute(event, &scratch, &stats);
    benchmark::DoNotOptimize(delta);
  }
  state.counters["j"] = static_cast<double>(j);
  ReportStats(state, stats, state.iterations());
}
BENCHMARK(KeyJoinChain)->DenseRange(0, Scaled(4, 2));

void CrossChain(benchmark::State& state) {
  const int64_t j = state.range(0);
  constexpr int64_t kSmallRel = 32;
  Setup setup(kSmallRel);
  CaExprPtr plan = setup.Scan();
  for (int64_t i = 0; i < j; ++i) {
    plan = Unwrap(CaExpr::RelCross(plan, setup.rel.get()));
  }
  exec::DeltaPlanPtr compiled = Unwrap(exec::CompileDeltaPlan(plan));
  exec::PlanScratch scratch;
  DeltaStats stats;
  for (auto _ : state) {
    AppendEvent event = setup.NextEvent(kSmallRel);
    auto delta = compiled->Execute(event, &scratch, &stats);
    benchmark::DoNotOptimize(delta);
  }
  state.counters["j"] = static_cast<double>(j);
  state.counters["expected_rows"] =
      std::pow(static_cast<double>(kSmallRel), static_cast<double>(j));
  ReportStats(state, stats, state.iterations());
}
BENCHMARK(CrossChain)->DenseRange(0, Scaled(3, 1));

void UnionFan(benchmark::State& state) {
  const int64_t u = state.range(0);
  Setup setup(16);
  CaExprPtr scan = setup.Scan();
  CaExprPtr plan =
      Unwrap(CaExpr::Select(scan, Eq(Col("region"), Lit(Value("NJ")))));
  for (int64_t i = 1; i < u; ++i) {
    CaExprPtr branch =
        Unwrap(CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(i)))));
    plan = Unwrap(CaExpr::Union(plan, branch));
  }
  exec::DeltaPlanPtr compiled = Unwrap(exec::CompileDeltaPlan(plan));
  exec::PlanScratch scratch;
  DeltaStats stats;
  for (auto _ : state) {
    AppendEvent event = setup.NextEvent(16);
    auto delta = compiled->Execute(event, &scratch, &stats);
    benchmark::DoNotOptimize(delta);
  }
  state.counters["u"] = static_cast<double>(u);
  ReportStats(state, stats, state.iterations());
}
BENCHMARK(UnionFan)->RangeMultiplier(2)->Range(1, Scaled(32, 4));

}  // namespace
}  // namespace bench
}  // namespace chronicle

CHRONICLE_BENCH_MAIN();
