#include "periodic/sliding_window.h"

#include <algorithm>
#include <unordered_set>

#include "algebra/validate.h"
#include "exec/plan_compiler.h"

namespace chronicle {

SlidingWindowView::SlidingWindowView(std::string name,
                                     exec::DeltaPlanPtr compiled,
                                     SummarySpec spec, Chronon origin,
                                     Chronon pane_width, int64_t num_panes,
                                     IndexMode index_mode)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      origin_(origin),
      pane_width_(pane_width),
      num_panes_(num_panes),
      index_mode_(index_mode),
      compiled_(std::move(compiled)),
      ring_(static_cast<size_t>(num_panes)) {
  for (Pane& pane : ring_) {
    pane.groups = KeyedTable<std::vector<AggState>>(index_mode_);
  }
}

Result<std::unique_ptr<SlidingWindowView>> SlidingWindowView::Make(
    std::string name, CaExprPtr plan, SummarySpec spec, Chronon origin,
    Chronon pane_width, int64_t num_panes, IndexMode index_mode) {
  if (plan == nullptr) {
    return Status::InvalidArgument("sliding-window view requires a plan");
  }
  CHRONICLE_RETURN_NOT_OK(ValidateChronicleAlgebra(*plan));
  if (spec.kind() != SummarySpec::Kind::kGroupBy) {
    return Status::InvalidArgument(
        "the pane optimization requires decomposable aggregates (GroupBy "
        "summarization)");
  }
  if (pane_width <= 0 || num_panes <= 0) {
    return Status::InvalidArgument("pane width and count must be positive");
  }
  CHRONICLE_ASSIGN_OR_RETURN(exec::DeltaPlanPtr compiled,
                             exec::CompileDeltaPlan(std::move(plan)));
  return std::unique_ptr<SlidingWindowView>(new SlidingWindowView(
      std::move(name), std::move(compiled), std::move(spec), origin,
      pane_width, num_panes, index_mode));
}

Status SlidingWindowView::ProcessAppend(const AppendEvent& event) {
  if (event.chronon < origin_) return Status::OK();
  const int64_t pane_index = (event.chronon - origin_) / pane_width_;
  if (pane_index < current_pane_) {
    return Status::OutOfRange("chronon regressed below the current pane");
  }
  CHRONICLE_ASSIGN_OR_RETURN(
      const std::vector<ChronicleRow>* delta,
      compiled_->ExecuteToRows(event, &scratch_, /*stats=*/nullptr));
  current_pane_ = pane_index;
  if (delta->empty()) return Status::OK();

  Pane& pane = ring_[static_cast<size_t>(pane_index % num_panes_)];
  if (pane.pane_index != pane_index) {
    // The slot held a pane that has slid out of every window: reuse it.
    pane.groups.Clear();
    pane.pane_index = pane_index;
  }
  for (const ChronicleRow& row : *delta) {
    Tuple key = spec_.KeyOf(row.values);
    std::vector<AggState>* states = pane.groups.Find(key);
    if (states == nullptr) {
      states = &pane.groups.GetOrCreate(std::move(key));
      states->reserve(spec_.aggregates().size());
      for (const AggSpec& agg : spec_.aggregates()) {
        states->push_back(agg.Init());
      }
    }
    for (size_t i = 0; i < spec_.aggregates().size(); ++i) {
      spec_.aggregates()[i].Update(&(*states)[i], row.values);
    }
  }
  return Status::OK();
}

bool SlidingWindowView::MergeKey(const Tuple& key,
                                 std::vector<AggState>* merged) const {
  // Merge in chronological (pane-index) order: order-sensitive aggregates
  // (FIRST/LAST) rely on it. Ring slots are not chronological, so sort the
  // live panes first — the ring is small by construction.
  std::vector<const Pane*> live;
  live.reserve(ring_.size());
  for (const Pane& pane : ring_) {
    if (pane.pane_index < 0) continue;
    // Live iff inside the window ending at the current pane.
    if (pane.pane_index > current_pane_ ||
        pane.pane_index <= current_pane_ - num_panes_) {
      continue;
    }
    live.push_back(&pane);
  }
  std::sort(live.begin(), live.end(), [](const Pane* a, const Pane* b) {
    return a->pane_index < b->pane_index;
  });

  bool found = false;
  for (const Pane* pane_ptr : live) {
    const Pane& pane = *pane_ptr;
    const std::vector<AggState>* states = pane.groups.Find(key);
    if (states == nullptr) continue;
    if (!found) {
      merged->clear();
      merged->reserve(spec_.aggregates().size());
      for (const AggSpec& agg : spec_.aggregates()) {
        merged->push_back(agg.Init());
      }
      found = true;
    }
    for (size_t i = 0; i < spec_.aggregates().size(); ++i) {
      spec_.aggregates()[i].Merge(&(*merged)[i], (*states)[i]);
    }
  }
  return found;
}

Tuple SlidingWindowView::FinalizeRow(const Tuple& key,
                                     const std::vector<AggState>& states) const {
  Tuple row = key;
  for (size_t i = 0; i < spec_.aggregates().size(); ++i) {
    row.push_back(spec_.aggregates()[i].Finalize(states[i]));
  }
  return row;
}

Result<Tuple> SlidingWindowView::QueryWindow(const Tuple& key) const {
  std::vector<AggState> merged;
  if (!MergeKey(key, &merged)) {
    return Status::NotFound("sliding view '" + name_ + "' has no key " +
                            TupleToString(key) + " in the current window");
  }
  return FinalizeRow(key, merged);
}

Status SlidingWindowView::ScanWindow(
    const std::function<void(const Tuple&)>& fn) const {
  std::unordered_set<Tuple, TupleHash, TupleEq> keys;
  for (const Pane& pane : ring_) {
    if (pane.pane_index < 0 || pane.pane_index > current_pane_ ||
        pane.pane_index <= current_pane_ - num_panes_) {
      continue;
    }
    pane.groups.ForEach([&](const Tuple& key, const std::vector<AggState>&) {
      keys.insert(key);
    });
  }
  for (const Tuple& key : keys) {
    std::vector<AggState> merged;
    if (MergeKey(key, &merged)) fn(FinalizeRow(key, merged));
  }
  return Status::OK();
}

void SlidingWindowView::VisitPanes(
    const std::function<void(int64_t, const Tuple&,
                             const std::vector<AggState>&)>& fn) const {
  for (const Pane& pane : ring_) {
    if (pane.pane_index < 0) continue;
    pane.groups.ForEach(
        [&](const Tuple& key, const std::vector<AggState>& states) {
          fn(pane.pane_index, key, states);
        });
  }
}

Status SlidingWindowView::RestorePaneGroup(int64_t pane_index, Tuple key,
                                           std::vector<AggState> states) {
  if (pane_index < 0) {
    return Status::InvalidArgument("pane index must be non-negative");
  }
  Pane& pane = ring_[static_cast<size_t>(pane_index % num_panes_)];
  if (pane.pane_index >= 0 && pane.pane_index != pane_index) {
    return Status::FailedPrecondition(
        "ring slot already holds pane " + std::to_string(pane.pane_index) +
        "; checkpoints must be restored into a fresh view");
  }
  pane.pane_index = pane_index;
  if (pane.groups.Find(key) != nullptr) {
    return Status::AlreadyExists("pane group already restored");
  }
  pane.groups.GetOrCreate(std::move(key)) = std::move(states);
  return Status::OK();
}

size_t SlidingWindowView::MemoryFootprint() const {
  size_t per_group = sizeof(Tuple) + spec_.key_columns().size() * sizeof(Value) +
                     spec_.aggregates().size() * sizeof(AggState) + 48;
  size_t groups = 0;
  for (const Pane& pane : ring_) groups += pane.groups.size();
  return groups * per_group;
}

}  // namespace chronicle
