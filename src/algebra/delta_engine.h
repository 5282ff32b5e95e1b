// DeltaEngine: incremental change propagation through chronicle-algebra
// expressions (Theorems 4.1 and 4.2), by tree-walking interpretation.
//
// Production maintenance runs compiled DeltaPlans (exec/delta_plan.h); this
// interpreter is the executable reference they are fuzzed against
// (tests/plan_equivalence_fuzz_test.cc) and the baseline of benchmark E13.
//
// Given one append event (everything inserted under one fresh sequence
// number), the engine computes the delta of any CA expression by one
// recursive pass over the operator tree, using ONLY:
//   * the appended tuples themselves, and
//   * current relation versions (via index lookups for CA_⋈).
// Neither the base chronicles nor any intermediate chronicle view is read
// or materialized — this is what makes the cost independent of |C| and of
// the view size.
//
// Correctness rests on the monotonicity theorem (4.1): all delta rows of a
// tick carry the tick's (fresh) sequence number, so for every operator the
// delta of the output is a function of the deltas of the inputs alone. In
// particular Δ(E1 − E2) = ΔE1 − ΔE2 and Δ(E1 ⋈_SN E2) = ΔE1 ⋈ ΔE2.
//
// Semantics: a chronicle is a *set* of (SN, payload) rows. Within a tick,
// Scan / Project / Union therefore deduplicate; Difference is set
// difference. The baseline engine (baseline/naive_engine.h) implements the
// same semantics so the two can be compared row-for-row in tests.
//
// The engine refuses expressions outside CA (use ValidateChronicleAlgebra
// first; the engine re-checks defensively and returns InvalidArgument).

#ifndef CHRONICLE_ALGEBRA_DELTA_ENGINE_H_
#define CHRONICLE_ALGEBRA_DELTA_ENGINE_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "algebra/ca_expr.h"
#include "algebra/complexity.h"
#include "common/status.h"
#include "storage/chronicle_group.h"

namespace chronicle {

// Thread safety: the engine is stateless and ComputeDelta is const — it
// reads only the event, the (shared-const) expression DAG, and the current
// relation versions through const lookups; the node memo is private to
// each call. Concurrent calls are safe provided no relation referenced by
// the plan is mutated concurrently.
class DeltaEngine {
 public:
  DeltaEngine() = default;

  // Computes the delta rows `expr` gains from `event`. All returned rows
  // carry event.sn. `stats` may be null.
  Result<std::vector<ChronicleRow>> ComputeDelta(
      const CaExpr& expr, const AppendEvent& event,
      DeltaStats* stats = nullptr) const;

 private:
  // Node deltas of one call, keyed by expression node identity: a
  // subexpression reachable through several parents of the DAG is
  // evaluated once per call.
  using Memo = std::unordered_map<const CaExpr*, std::vector<Tuple>>;

  // Recursive worker: computes (or fetches) the payload-tuple delta of
  // `expr` inside `memo` and returns a pointer to the memoized vector.
  Result<const std::vector<Tuple>*> Delta(const CaExpr& expr,
                                          const AppendEvent& event,
                                          DeltaStats* stats, Memo* memo) const;
};

}  // namespace chronicle

#endif  // CHRONICLE_ALGEBRA_DELTA_ENGINE_H_
