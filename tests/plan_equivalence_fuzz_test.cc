// Fuzz equivalence: the compiled DeltaPlan executor — row and columnar
// kernels — must be byte-identical to the reference DeltaEngine
// interpreter — same rows, same order, same errors — on randomized
// chronicle-algebra expressions. Two layers:
//
//   * Expression level: a depth-bounded random generator composes all ten
//     legal CA operators (with schema-compatible Union/Difference operands
//     and shared-subexpression DAGs by construction) and drives the
//     interpreter and both compiled legs over randomized append events,
//     asserting identical ChronicleRow output tick by tick.
//   * Database level: a mixed-shape view catalog is maintained under every
//     routing mode x thread count x kernel combination; all runs must
//     produce the view contents of the serial row-compiled kCheckAll run,
//     and within a routing mode identical MaintenanceReport counters.
//
// Seeded through the CHRONICLE_FUZZ_SEED replay scheme: CI varies the seed
// per run, failures print the value, and exporting it reproduces locally.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/delta_engine.h"
#include "common/random.h"
#include "db/database.h"
#include "exec/plan_compiler.h"
#include "storage/relation.h"

namespace chronicle {
namespace {

constexpr int64_t kAccounts = 16;
const char* const kStrings[] = {"NJ", "NY", "CA", "TX"};

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

Schema CustSchema() {
  return Schema({{"acct", DataType::kInt64}, {"state", DataType::kString}});
}

Relation MakeCust(Rng* rng) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  EXPECT_TRUE(rel.CreateSecondaryIndex("acct").ok());
  for (int64_t acct = 0; acct < kAccounts; ++acct) {
    EXPECT_TRUE(
        rel.Insert(Tuple{Value(acct), Value(kStrings[rng->Uniform(4)])}).ok());
  }
  return rel;
}

// One random comparison over a random column, typed by the column.
ScalarExprPtr RandomComparison(Rng* rng, const Schema& schema) {
  // ScalarExprPtr is move-only: draw the operands fresh in each branch.
  const Field& f = schema.field(rng->Uniform(schema.num_fields()));
  if (f.type == DataType::kString) {
    Value lit(kStrings[rng->Uniform(4)]);
    return rng->Uniform(2) ? Eq(Col(f.name), Lit(lit)) : Ne(Col(f.name), Lit(lit));
  }
  // Int64 and the double outputs of Avg both compare numerically.
  Value lit(static_cast<int64_t>(rng->Uniform(16)));
  switch (rng->Uniform(4)) {
    case 0: return Eq(Col(f.name), Lit(lit));
    case 1: return Ne(Col(f.name), Lit(lit));
    case 2: return Gt(Col(f.name), Lit(lit));
    default: return Le(Col(f.name), Lit(lit));
  }
}

ScalarExprPtr RandomPredicate(Rng* rng, const Schema& schema) {
  ScalarExprPtr pred = RandomComparison(rng, schema);
  if (rng->Bernoulli(0.3)) {
    ScalarExprPtr other = RandomComparison(rng, schema);
    pred = rng->Uniform(2)
               ? ScalarExpr::And(std::move(pred), std::move(other))
               : ScalarExpr::Or(std::move(pred), std::move(other));
  }
  return pred;
}

// Depth-bounded random CA expression over two chronicles and a keyed
// relation. Factories that reject a particular draw (column-name
// collisions after repeated relation joins, say) fall back to the child,
// so every draw yields a valid expression.
class ExprGen {
 public:
  ExprGen(Rng* rng, const Relation* rel) : rng_(rng), rel_(rel) {
    scans_[0] = CaExpr::Scan(0, "calls", CallSchema()).value();
    scans_[1] = CaExpr::Scan(1, "calls_b", CallSchema()).value();
  }

  CaExprPtr Random(int depth) {
    if (depth <= 0) return scans_[rng_->Uniform(2)];
    switch (rng_->Uniform(10)) {
      case 0:
        return scans_[rng_->Uniform(2)];
      case 1: {
        CaExprPtr child = Random(depth - 1);
        return CaExpr::Select(child, RandomPredicate(rng_, child->schema()))
            .value();
      }
      case 2: {
        CaExprPtr child = Random(depth - 1);
        return Fallback(CaExpr::Project(child, RandomColumns(child)), child);
      }
      case 3: {
        CaExprPtr left = Random(depth - 1);
        return Fallback(CaExpr::SeqJoin(left, Random(depth - 1)), left);
      }
      case 4:
      case 5: {
        // Operands over a shared base keep the schemas identical (the
        // Union/Difference admission rule) and, when an operand IS the
        // base, hand the compiler a DAG edge to resolve.
        CaExprPtr base = Random(depth - 1);
        CaExprPtr left = MaybeSelect(base);
        CaExprPtr right = MaybeSelect(base);
        Result<CaExprPtr> combined = rng_->Uniform(2) == 0
                                         ? CaExpr::Union(left, right)
                                         : CaExpr::Difference(left, right);
        return Fallback(std::move(combined), base);
      }
      case 6: {
        CaExprPtr child = Random(depth - 1);
        return Fallback(RandomGroupBy(child), child);
      }
      case 7: {
        CaExprPtr child = Random(depth - 1);
        return Fallback(CaExpr::RelCross(child, rel_), child);
      }
      case 8: {
        CaExprPtr child = Random(depth - 1);
        Result<size_t> col = RandomInt64Column(child);
        if (!col.ok()) return child;
        return Fallback(
            CaExpr::RelKeyJoin(child, rel_,
                               child->schema().field(col.value()).name),
            child);
      }
      default: {
        CaExprPtr child = Random(depth - 1);
        Result<size_t> col = RandomInt64Column(child);
        if (!col.ok()) return child;
        // acct is the (unique) key, so every probe matches at most one
        // relation row: bound 1 is an integrity constraint that holds.
        return Fallback(
            CaExpr::RelBoundedJoin(child, rel_,
                                   child->schema().field(col.value()).name,
                                   "acct", 1),
            child);
      }
    }
  }

 private:
  static CaExprPtr Fallback(Result<CaExprPtr> made, CaExprPtr child) {
    return made.ok() ? std::move(made).value() : std::move(child);
  }

  CaExprPtr MaybeSelect(CaExprPtr base) {
    if (rng_->Uniform(2) == 0) return base;
    return CaExpr::Select(base, RandomPredicate(rng_, base->schema())).value();
  }

  std::vector<std::string> RandomColumns(const CaExprPtr& child) {
    const Schema& schema = child->schema();
    std::vector<std::string> cols;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      if (rng_->Bernoulli(0.5)) cols.push_back(schema.field(i).name);
    }
    if (cols.empty()) {
      cols.push_back(
          schema.field(rng_->Uniform(schema.num_fields())).name);
    }
    return cols;
  }

  Result<size_t> RandomInt64Column(const CaExprPtr& child) {
    const Schema& schema = child->schema();
    std::vector<size_t> candidates;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      if (schema.field(i).type == DataType::kInt64) candidates.push_back(i);
    }
    if (candidates.empty()) {
      return Status::NotFound("no int64 column");
    }
    return candidates[rng_->Uniform(candidates.size())];
  }

  Result<CaExprPtr> RandomGroupBy(const CaExprPtr& child) {
    const Schema& schema = child->schema();
    std::vector<std::string> group_cols;
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      if (rng_->Bernoulli(0.4)) group_cols.push_back(schema.field(i).name);
    }
    std::vector<AggSpec> aggs;
    const size_t num_aggs = 1 + rng_->Uniform(2);
    for (size_t a = 0; a < num_aggs; ++a) {
      const std::string out = "z_agg" + std::to_string(agg_counter_++);
      std::vector<std::string> numeric;
      for (size_t i = 0; i < schema.num_fields(); ++i) {
        if (schema.field(i).type != DataType::kString) {
          numeric.push_back(schema.field(i).name);
        }
      }
      if (numeric.empty() || rng_->Uniform(5) == 0) {
        aggs.push_back(AggSpec::Count(out));
        continue;
      }
      const std::string& in = numeric[rng_->Uniform(numeric.size())];
      switch (rng_->Uniform(4)) {
        case 0: aggs.push_back(AggSpec::Sum(in, out)); break;
        case 1: aggs.push_back(AggSpec::Min(in, out)); break;
        case 2: aggs.push_back(AggSpec::Max(in, out)); break;
        default: aggs.push_back(AggSpec::Avg(in, out)); break;
      }
    }
    return CaExpr::GroupBySeq(child, std::move(group_cols), std::move(aggs));
  }

  Rng* rng_;
  const Relation* rel_;
  CaExprPtr scans_[2];
  int agg_counter_ = 0;
};

std::vector<Tuple> RandomBatch(Rng* rng, uint64_t max_tuples) {
  std::vector<Tuple> out;
  const uint64_t n = rng->Uniform(max_tuples + 1);
  for (uint64_t i = 0; i < n; ++i) {
    // Small domains so dedupe, difference, and grouping actually collide.
    out.push_back(Tuple{Value(static_cast<int64_t>(rng->Uniform(kAccounts))),
                        Value(kStrings[rng->Uniform(4)]),
                        Value(static_cast<int64_t>(rng->Uniform(20)))});
  }
  return out;
}

TEST(PlanEquivalenceFuzzTest, RandomExpressionsMatchInterpreterTickByTick) {
  const uint64_t seed = FuzzSeed(20260807);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);
  Relation rel = MakeCust(&rng);
  ExprGen gen(&rng, &rel);

  DeltaEngine engine;
  // ONE scratch per engine across all expressions and ticks: this is
  // exactly the reuse pattern ViewManager relies on, so stale state in any
  // retained buffer would surface here as a cross-expression mismatch.
  // Triangulation: interpreter vs row-compiled vs columnar — the scratch
  // toggle is the only difference between the two compiled legs.
  exec::PlanScratch scratch;  // columnar (the default)
  exec::PlanScratch row_scratch;
  row_scratch.set_columnar_enabled(false);

  for (int round = 0; round < 48; ++round) {
    SCOPED_TRACE(testing::Message() << "round=" << round);
    CaExprPtr expr = gen.Random(1 + static_cast<int>(rng.Uniform(4)));
    SCOPED_TRACE(testing::Message() << "expr=\n" << expr->ToString());
    Result<exec::DeltaPlanPtr> plan = exec::CompileDeltaPlan(expr);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    for (SeqNum sn = 1; sn <= 10; ++sn) {
      SCOPED_TRACE(testing::Message() << "sn=" << sn);
      AppendEvent event;
      event.sn = sn;
      event.chronon = static_cast<Chronon>(sn);
      event.inserts.emplace_back(0, RandomBatch(&rng, 4));
      if (rng.Bernoulli(0.7)) {
        event.inserts.emplace_back(1, RandomBatch(&rng, 3));
      }

      Result<std::vector<ChronicleRow>> interpreted =
          engine.ComputeDelta(*expr, event);
      // Row-compiled leg first (it shares nothing with the columnar
      // scratch), then the columnar leg; its rows stay valid until that
      // scratch's next execution.
      Result<const std::vector<ChronicleRow>*> row_compiled =
          plan.value()->ExecuteToRows(event, &row_scratch, nullptr);
      Result<const std::vector<ChronicleRow>*> compiled =
          plan.value()->ExecuteToRows(event, &scratch, nullptr);
      ASSERT_EQ(interpreted.ok(), compiled.ok())
          << (interpreted.ok() ? compiled.status().ToString()
                               : interpreted.status().ToString());
      ASSERT_EQ(interpreted.ok(), row_compiled.ok())
          << (interpreted.ok() ? row_compiled.status().ToString()
                               : interpreted.status().ToString());
      if (!interpreted.ok()) {
        EXPECT_EQ(interpreted.status().message(),
                  compiled.status().message());
        EXPECT_EQ(interpreted.status().message(),
                  row_compiled.status().message());
        continue;
      }
      const std::vector<ChronicleRow>& rows = *compiled.value();
      const std::vector<ChronicleRow>& row_rows = *row_compiled.value();
      ASSERT_EQ(interpreted.value().size(), rows.size());
      ASSERT_EQ(interpreted.value().size(), row_rows.size());
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(interpreted.value()[i], rows[i])
            << "row " << i << ": interpreter "
            << ChronicleRowToString(interpreted.value()[i]) << " vs columnar "
            << ChronicleRowToString(rows[i]);
        EXPECT_EQ(interpreted.value()[i], row_rows[i])
            << "row " << i << ": interpreter "
            << ChronicleRowToString(interpreted.value()[i])
            << " vs row-compiled " << ChronicleRowToString(row_rows[i]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Database level: routing modes x thread counts x kernels.

void ApplyDdl(ChronicleDatabase* db) {
  ASSERT_TRUE(
      db->CreateChronicle("calls", CallSchema(), RetentionPolicy::None()).ok());
  ASSERT_TRUE(db->CreateRelation("cust", CustSchema(), "acct").ok());
  Relation* cust = db->GetRelation("cust").value();
  ASSERT_TRUE(cust->CreateSecondaryIndex("acct").ok());
  Rng rel_rng(7);
  for (int64_t acct = 0; acct < kAccounts; ++acct) {
    ASSERT_TRUE(db->InsertInto(
                      "cust", Tuple{Value(acct),
                                    Value(kStrings[rel_rng.Uniform(4)])})
                    .ok());
  }

  CaExprPtr scan = db->ScanChronicle("calls").value();
  for (int64_t v = 0; v < 36; ++v) {
    CaExprPtr guarded =
        CaExpr::Select(scan, Eq(Col("region"),
                                Lit(Value(kStrings[v % 4]))))
            .value();
    CaExprPtr plan;
    switch (v % 6) {
      case 0:  // unguarded scan
        plan = scan;
        break;
      case 1:  // eq-guarded (exercises kGuards / kEqIndex routing)
        plan = guarded;
        break;
      case 2:  // relation key join under a guard
        plan = CaExpr::RelKeyJoin(guarded, db->GetRelation("cust").value(),
                                  "caller")
                   .value();
        break;
      case 3:  // DAG: union of two selections over the shared scan
        plan = CaExpr::Union(
                   guarded,
                   CaExpr::Select(scan, Ge(Col("minutes"), Lit(Value(v % 7))))
                       .value())
                   .value();
        break;
      case 4:  // self sequence-join through the shared scan
        plan = CaExpr::SeqJoin(scan, guarded).value();
        break;
      default:  // bounded join with the key-uniqueness bound
        plan = CaExpr::RelBoundedJoin(scan, db->GetRelation("cust").value(),
                                      "caller", "acct", 1)
                   .value();
        break;
    }
    SummarySpec spec =
        SummarySpec::GroupBy(plan->schema(), {"caller"},
                             {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")})
            .value();
    ASSERT_TRUE(db->CreateView("view_" + std::to_string(v), plan, spec).ok());
  }
}

struct RunResult {
  std::vector<MaintenanceReport> reports;
  std::vector<std::vector<Tuple>> views;
};

RunResult DriveWorkload(ChronicleDatabase* db, uint64_t seed) {
  RunResult result;
  Rng rng(seed);
  Chronon chronon = 0;
  for (int tick = 0; tick < 20; ++tick) {
    std::vector<Tuple> batch = RandomBatch(&rng, 6);
    // At least one row per tick so every view shape sees delta traffic.
    batch.push_back(Tuple{Value(int64_t{tick % kAccounts}),
                          Value(kStrings[tick % 4]), Value(int64_t{tick})});
    Result<AppendResult> r = db->Append("calls", std::move(batch), ++chronon);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    result.reports.push_back(r->maintenance);
  }
  for (int64_t v = 0; v < 36; ++v) {
    result.views.push_back(db->ScanView("view_" + std::to_string(v)).value());
  }
  return result;
}

MaintenanceOptions SerialRowCompiled() {
  MaintenanceOptions options;
  options.num_threads = 1;
  options.use_columnar_kernels = false;
  return options;
}

TEST(PlanEquivalenceFuzzTest, DatabaseAgreesAcrossModesThreadsAndKernels) {
  const uint64_t seed = FuzzSeed(424242);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);

  // Contents reference: serial row-compiled under kCheckAll, where every
  // view is handed every append — routing prunes nothing.
  ChronicleDatabase reference_db(RoutingMode::kCheckAll);
  ApplyDdl(&reference_db);
  reference_db.ReconfigureMaintenance(SerialRowCompiled());
  const RunResult reference = DriveWorkload(&reference_db, seed);

  const RoutingMode kModes[] = {RoutingMode::kCheckAll, RoutingMode::kGuards,
                                RoutingMode::kEqIndex};
  for (RoutingMode mode : kModes) {
    // Report reference for this mode: its serial row-compiled run. Routing
    // only prunes provably-empty work, so its contents match kCheckAll.
    ChronicleDatabase mode_db(mode);
    ApplyDdl(&mode_db);
    mode_db.ReconfigureMaintenance(SerialRowCompiled());
    const RunResult mode_reference = DriveWorkload(&mode_db, seed);
    EXPECT_EQ(reference.views, mode_reference.views)
        << "mode=" << static_cast<int>(mode);

    for (size_t threads : {1u, 2u, 8u}) {
      for (bool columnar : {false, true}) {
        if (threads == 1 && !columnar) continue;  // that IS mode_reference
        SCOPED_TRACE(testing::Message()
                     << "mode=" << static_cast<int>(mode)
                     << " threads=" << threads << " columnar=" << columnar);
        ChronicleDatabase db(mode);
        ApplyDdl(&db);
        MaintenanceOptions options;
        options.num_threads = threads;
        options.min_views_per_task = 1;
        options.use_columnar_kernels = columnar;
        db.ReconfigureMaintenance(options);
        RunResult run = DriveWorkload(&db, seed);

        // Within a mode, the routing decisions — and so every report
        // counter — must be kernel- and thread-independent.
        ASSERT_EQ(mode_reference.reports.size(), run.reports.size());
        for (size_t i = 0; i < run.reports.size(); ++i) {
          EXPECT_EQ(mode_reference.reports[i].views_considered,
                    run.reports[i].views_considered);
          EXPECT_EQ(mode_reference.reports[i].views_updated,
                    run.reports[i].views_updated);
          EXPECT_EQ(mode_reference.reports[i].views_skipped,
                    run.reports[i].views_skipped);
          EXPECT_EQ(mode_reference.reports[i].delta_rows_applied,
                    run.reports[i].delta_rows_applied);
        }
        ASSERT_EQ(reference.views.size(), run.views.size());
        for (size_t v = 0; v < run.views.size(); ++v) {
          SCOPED_TRACE(testing::Message() << "view=" << v);
          EXPECT_EQ(reference.views[v], run.views[v]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace chronicle
