// NaiveEngine: the relational-algebra comparator of Proposition 3.1.
//
// This engine answers view queries the way a conventional RDBMS (or the
// procedural application code the paper criticizes) would: by evaluating
// the defining expression from scratch over the STORED chronicle. It
// serves three purposes:
//
//   1. The IM-C^k baseline of Proposition 3.1 / benchmark E1: per-append
//      recomputation cost necessarily grows with |C|.
//   2. The correctness oracle for the incremental engine: property tests
//      recompute each view from scratch and compare row-for-row with the
//      incrementally maintained PersistentView.
//   3. The §5.3 "batch at end of period" formulation of discount plans.
//
// Faithfulness of the temporal join: the chronicle model joins each
// chronicle tuple with the relation version current AT ITS SEQUENCE
// NUMBER. A from-scratch recompute therefore needs historical relation
// versions — which is precisely the storage the chronicle model avoids.
// RelationHistory records those versions for the baseline's benefit; if no
// history is supplied the engine uses current relation contents (exact
// whenever relations did not change mid-stream).
//
// Semantics match the incremental engines (compiled DeltaPlans and the
// reference DeltaEngine) exactly: a chronicle is a set of (SN, payload)
// rows; Union/Difference/Project deduplicate.
//
// Unlike the incremental engines, this engine also evaluates the four
// Theorem 4.3 constructs (ProjectDropSn, GroupByNoSn, ChronicleCross,
// SeqThetaJoin) — demonstrating that they are *expressible* in relational
// algebra, just not incrementally maintainable without chronicle access.
// Conventions for non-chronicle results: SN-dropping operators emit rows
// with sn = 0; cross/theta joins between chronicles emit sn = max of the
// operand SNs.

#ifndef CHRONICLE_BASELINE_NAIVE_ENGINE_H_
#define CHRONICLE_BASELINE_NAIVE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "algebra/ca_expr.h"
#include "common/status.h"
#include "storage/chronicle_group.h"
#include "views/summary_spec.h"

namespace chronicle {

// Historical relation versions, recorded by the caller before relation
// updates, so from-scratch evaluation can reproduce the implicit temporal
// join. (The chronicle model itself never needs this — that asymmetry is
// part of the paper's point.)
class RelationHistory {
 public:
  // Records `rel`'s current rows as the version observed by every tick
  // with sequence number >= from_sn (until a later snapshot supersedes it).
  void Snapshot(const Relation& rel, SeqNum from_sn);

  // Rows of `rel` visible at `sn`, or nullptr if no snapshot covers it
  // (callers then fall back to current contents).
  const std::vector<Tuple>* RowsAt(const Relation* rel, SeqNum sn) const;

  size_t num_snapshots() const;

 private:
  std::map<const Relation*, std::map<SeqNum, std::vector<Tuple>>> history_;
};

// What a Scan reads during full evaluation.
enum class ScanScope : uint8_t {
  // The whole chronicle; fails if retention has dropped rows. This is the
  // relational-baseline / oracle mode.
  kFullChronicle = 0,
  // Whatever the retention policy kept — the §2.2 "detailed queries over
  // some latest window on the chronicle" mode. Results are with respect to
  // the retained suffix, by design.
  kRetainedWindow = 1,
};

class NaiveEngine {
 public:
  // `group` provides the stored chronicles; `history` may be null.
  explicit NaiveEngine(const ChronicleGroup* group,
                       const RelationHistory* history = nullptr,
                       ScanScope scope = ScanScope::kFullChronicle);

  // Full evaluation over the stored chronicles. Fails with
  // FailedPrecondition if a scanned chronicle has discarded rows (its
  // retention policy dropped part of the stream): the relational baseline
  // NEEDS the whole chronicle.
  Result<std::vector<ChronicleRow>> Evaluate(const CaExpr& expr) const;

  // Full recomputation of the summarized view `spec` over `expr`,
  // returning finalized rows sorted by key (deterministic for comparison
  // with PersistentView scans).
  Result<std::vector<Tuple>> EvaluateSummary(const CaExpr& expr,
                                             const SummarySpec& spec) const;

  // How baseline predicates see $chronon. Defaults to chronon == sn.
  void set_chronon_resolver(std::function<Chronon(SeqNum)> resolver) {
    chronon_resolver_ = std::move(resolver);
  }

 private:
  // Relation rows visible at `sn` (history if available, else current).
  const std::vector<Tuple>& RelationRowsAt(const Relation* rel, SeqNum sn) const;

  const ChronicleGroup* group_;
  const RelationHistory* history_;
  ScanScope scope_;
  std::function<Chronon(SeqNum)> chronon_resolver_;
};

// Sorts tuples lexicographically (helper for oracle comparisons).
void SortTuples(std::vector<Tuple>* tuples);

}  // namespace chronicle

#endif  // CHRONICLE_BASELINE_NAIVE_ENGINE_H_
