// Experiment E9 (ablation, DESIGN.md §3.1) — shared delta computation.
//
// Many persistent views are typically defined over common subexpressions
// (the same base scan, the same guarded selection). Series:
//   * SharedSubplan   — V views all summarizing ONE shared selection plan
//     (different group keys);
//   * PrivateSubplans — the same V views, each built over its own
//     structurally identical copy of the plan.
// Every view runs its own compiled DeltaPlan, which shares subexpressions
// within one plan but not across views, so today the two curves coincide.
// A cross-view shared circuit would open a gap between them; the
// interpreter's former per-tick cross-view cache is the recorded target
// (EXPERIMENTS.md, E9).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "common/random.h"
#include "db/database.h"

namespace chronicle {
namespace bench {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64},
                 {"charge", DataType::kDouble}});
}

// One of several summarizations over the same (possibly shared) plan.
SummarySpec SpecFor(const Schema& schema, int64_t i) {
  switch (i % 4) {
    case 0:
      return Unwrap(SummarySpec::GroupBy(schema, {"caller"},
                                         {AggSpec::Sum("minutes", "m")}));
    case 1:
      return Unwrap(SummarySpec::GroupBy(schema, {"region"},
                                         {AggSpec::Count("n")}));
    case 2:
      return Unwrap(SummarySpec::GroupBy(schema, {"caller"},
                                         {AggSpec::Sum("charge", "c")}));
    default:
      return Unwrap(SummarySpec::GroupBy(
          schema, {}, {AggSpec::Max("minutes", "longest")}));
  }
}

void RunSharing(benchmark::State& state, bool shared) {
  const int64_t num_views = state.range(0);
  ChronicleDatabase db;
  Check(db.CreateChronicle("calls", CallSchema(), RetentionPolicy::None())
            .status());

  CaExprPtr shared_plan;
  if (shared) {
    CaExprPtr scan = Unwrap(db.ScanChronicle("calls"));
    shared_plan =
        Unwrap(CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(10)))));
  }
  for (int64_t v = 0; v < num_views; ++v) {
    CaExprPtr plan = shared_plan;
    if (!shared) {
      // Structurally identical but a distinct node graph.
      CaExprPtr scan = Unwrap(
          CaExpr::Scan(0, "calls", CallSchema()));
      plan = Unwrap(CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(10)))));
    }
    Check(db.CreateView("v" + std::to_string(v), plan,
                        SpecFor(plan->schema(), v))
              .status());
  }

  Rng rng(11);
  const char* regions[] = {"NJ", "NY", "CA", "TX"};
  Chronon chronon = 0;
  for (auto _ : state) {
    // A batch of 8 tuples makes the per-node delta work non-trivial, so
    // sharing has something to save.
    std::vector<Tuple> batch;
    for (int i = 0; i < 8; ++i) {
      const int64_t minutes = static_cast<int64_t>(rng.Uniform(120));
      batch.push_back(Tuple{Value(static_cast<int64_t>(rng.Uniform(256))),
                            Value(regions[rng.Uniform(4)]), Value(minutes),
                            Value(static_cast<double>(minutes) * 0.11)});
    }
    Check(db.Append("calls", std::move(batch), ++chronon).status());
  }
  state.counters["num_views"] = static_cast<double>(num_views);
  state.counters["appends_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void SharedSubplan(benchmark::State& state) { RunSharing(state, true); }
BENCHMARK(SharedSubplan)->RangeMultiplier(4)->Range(1, Scaled(256, 16));

void PrivateSubplans(benchmark::State& state) { RunSharing(state, false); }
BENCHMARK(PrivateSubplans)->RangeMultiplier(4)->Range(1, Scaled(256, 16));

}  // namespace
}  // namespace bench
}  // namespace chronicle

CHRONICLE_BENCH_MAIN();
