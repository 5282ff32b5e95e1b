#include "algebra/delta_engine.h"

#include <limits>
#include <unordered_set>

#include "storage/keyed_table.h"

namespace chronicle {

namespace {

using TupleSet = std::unordered_set<Tuple, TupleHash, TupleEq>;

void Record(DeltaStats* stats, size_t rows) {
  if (stats == nullptr) return;
  stats->total_rows_produced += rows;
  if (rows > stats->max_intermediate_rows) stats->max_intermediate_rows = rows;
}

// Removes duplicate tuples in place, preserving first-seen order.
void Dedupe(std::vector<Tuple>* rows) {
  TupleSet seen;
  size_t w = 0;
  for (size_t r = 0; r < rows->size(); ++r) {
    if (!seen.insert((*rows)[r]).second) continue;
    if (w != r) (*rows)[w] = std::move((*rows)[r]);
    ++w;
  }
  rows->resize(w);
}

// reserve() for a join output of a*b rows; skipped if the product cannot
// be represented (adversarial inputs — the push_backs below still grow
// correctly, just without the up-front reservation).
void ReserveProduct(std::vector<Tuple>* out, size_t a, size_t b) {
  if (a != 0 && b > std::numeric_limits<size_t>::max() / a) return;
  out->reserve(a * b);
}

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  Tuple out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

Result<std::vector<ChronicleRow>> DeltaEngine::ComputeDelta(
    const CaExpr& expr, const AppendEvent& event, DeltaStats* stats) const {
  Memo memo;
  CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* tuples,
                             Delta(expr, event, stats, &memo));
  std::vector<ChronicleRow> rows;
  rows.reserve(tuples->size());
  for (const Tuple& t : *tuples) {
    rows.push_back(ChronicleRow{event.sn, t});
  }
  return rows;
}

Result<const std::vector<Tuple>*> DeltaEngine::Delta(const CaExpr& expr,
                                                     const AppendEvent& event,
                                                     DeltaStats* stats,
                                                     Memo* memo) const {
  // DAG sharing: a node already evaluated this call is returned verbatim.
  // (std::unordered_map never invalidates element references on insert.)
  auto memo_it = memo->find(&expr);
  if (memo_it != memo->end()) return &memo_it->second;

  std::vector<Tuple> out;
  switch (expr.op()) {
    case CaOp::kScan: {
      for (const auto& [id, tuples] : event.inserts) {
        if (id != expr.chronicle_id()) continue;
        out.insert(out.end(), tuples.begin(), tuples.end());
      }
      // Set semantics: identical tuples appended under one SN are one row.
      Dedupe(&out);
      break;
    }

    case CaOp::kSelect: {
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* child,
                                 Delta(*expr.child(0), event, stats, memo));
      out.reserve(child->size());
      for (const Tuple& t : *child) {
        EvalRow row{&t, event.sn, event.chronon};
        CHRONICLE_ASSIGN_OR_RETURN(bool keep, expr.predicate()->EvalBool(row));
        if (keep) out.push_back(t);
      }
      break;
    }

    case CaOp::kProject: {
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* child,
                                 Delta(*expr.child(0), event, stats, memo));
      out.reserve(child->size());
      for (const Tuple& t : *child) {
        Tuple projected;
        projected.reserve(expr.projection().size());
        for (size_t idx : expr.projection()) projected.push_back(t[idx]);
        out.push_back(std::move(projected));
      }
      // Projection can merge rows that differed only on dropped columns.
      Dedupe(&out);
      break;
    }

    case CaOp::kSeqJoin: {
      // Within one tick every delta row carries the same (fresh) SN, so the
      // SN-equijoin of the deltas is their full pairing; the cross terms
      // against old chronicle state are empty by Theorem 4.1.
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* left,
                                 Delta(*expr.child(0), event, stats, memo));
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* right,
                                 Delta(*expr.child(1), event, stats, memo));
      ReserveProduct(&out, left->size(), right->size());
      for (const Tuple& l : *left) {
        for (const Tuple& r : *right) {
          out.push_back(ConcatTuples(l, r));
        }
      }
      break;
    }

    case CaOp::kUnion: {
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* left,
                                 Delta(*expr.child(0), event, stats, memo));
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* right,
                                 Delta(*expr.child(1), event, stats, memo));
      out.reserve(left->size() + right->size());
      out.insert(out.end(), left->begin(), left->end());
      out.insert(out.end(), right->begin(), right->end());
      Dedupe(&out);
      break;
    }

    case CaOp::kDifference: {
      // New SNs cannot exist in the old right operand (group discipline), so
      // Δ(E1 − E2) = ΔE1 − ΔE2 exactly (Theorem 4.1 proof).
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* left,
                                 Delta(*expr.child(0), event, stats, memo));
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* right,
                                 Delta(*expr.child(1), event, stats, memo));
      TupleSet removed(right->begin(), right->end());
      out.reserve(left->size());
      for (const Tuple& t : *left) {
        if (removed.count(t) == 0) out.push_back(t);
      }
      Dedupe(&out);
      break;
    }

    case CaOp::kGroupBySeq: {
      // SN is in the grouping list, so the appended tuples form brand-new
      // groups: aggregate within the tick only.
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* child,
                                 Delta(*expr.child(0), event, stats, memo));
      KeyedTable<std::vector<AggState>> groups(IndexMode::kHash);
      // Deterministic output order, holding stable pointers into the table
      // so finalize never re-probes and the key is copied exactly once (on
      // group creation, inside the table).
      std::vector<KeyedTable<std::vector<AggState>>::Entry> group_order;
      Tuple key;  // reused probe key: capacity survives clear()
      for (const Tuple& t : *child) {
        key.clear();
        for (size_t idx : expr.group_columns()) key.push_back(t[idx]);
        auto entry = groups.GetOrCreateEntry(key);
        if (entry.inserted) {
          entry.value->reserve(expr.aggregates().size());
          for (const AggSpec& agg : expr.aggregates()) {
            entry.value->push_back(agg.Init());
          }
          group_order.push_back(entry);
        }
        for (size_t i = 0; i < expr.aggregates().size(); ++i) {
          expr.aggregates()[i].Update(&(*entry.value)[i], t);
        }
      }
      out.reserve(group_order.size());
      for (const auto& entry : group_order) {
        Tuple row;
        row.reserve(entry.key->size() + expr.aggregates().size());
        row.insert(row.end(), entry.key->begin(), entry.key->end());
        for (size_t i = 0; i < expr.aggregates().size(); ++i) {
          row.push_back(expr.aggregates()[i].Finalize((*entry.value)[i]));
        }
        out.push_back(std::move(row));
      }
      break;
    }

    case CaOp::kRelCross: {
      // Implicit temporal join: proactive updates guarantee the current
      // relation version is the one associated with this (fresh) SN.
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* child,
                                 Delta(*expr.child(0), event, stats, memo));
      const Relation* rel = expr.relation();
      ReserveProduct(&out, child->size(), rel->size());
      for (const Tuple& t : *child) {
        for (const Tuple& r : rel->rows()) {
          out.push_back(ConcatTuples(t, r));
        }
        if (stats != nullptr) stats->relation_rows_scanned += rel->size();
      }
      break;
    }

    case CaOp::kRelKeyJoin: {
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* child,
                                 Delta(*expr.child(0), event, stats, memo));
      const Relation* rel = expr.relation();
      out.reserve(child->size());
      for (const Tuple& t : *child) {
        if (stats != nullptr) ++stats->relation_lookups;
        // Status-free probe: the inner-join miss path allocates nothing.
        const Tuple* match = rel->FindByKey(t[expr.join_column()]);
        if (match == nullptr) continue;  // inner join: unmatched rows drop out
        out.push_back(ConcatTuples(t, *match));
      }
      break;
    }

    case CaOp::kRelBoundedJoin: {
      CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* child,
                                 Delta(*expr.child(0), event, stats, memo));
      const Relation* rel = expr.relation();
      ReserveProduct(&out, child->size(), expr.max_matches());
      for (const Tuple& t : *child) {
        if (stats != nullptr) ++stats->relation_lookups;
        // Status-free probe straight into the index's slot list (the index
        // exists by construction, see CaExpr::RelBoundedJoin): no staging
        // vector, and the miss path allocates nothing.
        const std::vector<size_t>* slots =
            rel->FindBySecondary(expr.relation_column(), t[expr.join_column()]);
        if (slots == nullptr) continue;
        if (slots->size() > expr.max_matches()) {
          // The Definition 4.2 guarantee is an integrity constraint; its
          // violation means the view definition's admission into CA_join
          // was unsound.
          return Status::FailedPrecondition(
              "bounded join matched " + std::to_string(slots->size()) +
              " relation tuples, declared bound is " +
              std::to_string(expr.max_matches()) + " (Definition 4.2)");
        }
        for (size_t slot : *slots) {
          out.push_back(ConcatTuples(t, rel->rows()[slot]));
        }
      }
      break;
    }

    case CaOp::kProjectDropSn:
    case CaOp::kGroupByNoSn:
    case CaOp::kChronicleCross:
    case CaOp::kSeqThetaJoin:
      return Status::InvalidArgument(
          std::string("operator ") + CaOpToString(expr.op()) +
          " is outside chronicle algebra and cannot be maintained "
          "incrementally without chronicle access (Theorem 4.3)");
  }

  Record(stats, out.size());
  auto [slot, inserted] = memo->emplace(&expr, std::move(out));
  return &slot->second;
}

}  // namespace chronicle
