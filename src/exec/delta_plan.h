// Compiled delta plans: the production delta engine (Theorems 4.1/4.2).
//
// Every maintained view — persistent, periodic and sliding — runs its
// per-append delta through a DeltaPlan. The reference interpreter
// (algebra/delta_engine) re-walks the CaExpr tree on every tick and pays a
// hash-map memo probe per node, a fresh std::vector per operator, and a
// heap Status per unmatched join key. Theorem 4.2 says the per-append
// algebra is cheap; those constant factors are pure interpretation
// overhead. A DeltaPlan removes them structurally:
//
//   * At view-registration time the validated CaExpr DAG is lowered into a
//     flat POST-ORDER instruction list (exec/plan_compiler.h). Instructions
//     read and write numbered operand slots; a subexpression shared by
//     several parents is lowered ONCE and its slot read many times — no
//     per-tick memo hashing.
//   * Execution is batch-at-a-time over a PlanScratch: every slot is a
//     retained std::vector<Tuple> that is cleared (never freed) between
//     ticks, dedupe reuses a retained hash set, group-by reuses a retained
//     group table, and tick-scoped transients (group output order) live in
//     a bump Arena that is Reset, not freed. A steady-state tick touches
//     the system allocator only for the payload Tuples themselves.
//   * Relation probes go through the status-free Relation::FindByKey /
//     FindBySecondary, so the inner-join miss path allocates nothing.
//
// Semantics are BYTE-IDENTICAL to the reference interpreter (same operator
// order, same first-seen dedupe, same error texts for Definition 4.2
// violations); tests/plan_equivalence_fuzz_test.cc enforces this with
// randomized expressions, interpreter vs row-compiled vs columnar.
//
// Thread safety: a DeltaPlan is immutable after compilation and may be
// executed concurrently; all mutable state lives in the caller-owned
// PlanScratch, one per worker (the parallel fan-out stays TSan-clean).

#ifndef CHRONICLE_EXEC_DELTA_PLAN_H_
#define CHRONICLE_EXEC_DELTA_PLAN_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "aggregates/aggregate.h"
#include "algebra/ca_expr.h"
#include "algebra/complexity.h"
#include "common/arena.h"
#include "common/status.h"
#include "exec/column_batch.h"
#include "exec/vector_kernels.h"
#include "storage/chronicle_group.h"

namespace chronicle {
namespace exec {

// The compiled operator set: exactly the legal CA operators (Definition
// 4.1 / CA_join). Theorem 4.3 constructs are rejected at compile time.
enum class PlanOp : uint8_t {
  kScan = 0,
  kSelect,
  kProject,
  kSeqJoin,
  kUnion,
  kDifference,
  kGroupBySeq,
  kRelCross,
  kRelKeyJoin,
  kRelBoundedJoin,
};

// One instruction of the flat post-order program. Operand payloads
// (predicate, projection map, aggregate specs, relation pointer) are read
// through `node`, which the owning DeltaPlan keeps alive via its root.
struct PlanInstr {
  PlanOp op;
  uint32_t out = 0;  // slot this instruction writes (written exactly once)
  uint32_t in0 = 0;  // first input slot (unary/binary ops)
  uint32_t in1 = 0;  // second input slot (binary ops)
  const CaExpr* node = nullptr;
  // Compile-time engine decision (exec/vector_kernels.h PlanVectorInstr):
  // true when this instruction has a vector kernel and its shape
  // qualifies. Execution still falls back to the row arm per-tick when the
  // scratch disables columnar mode or a transposition type-check fails.
  bool columnar = false;
};

// Accumulated profile of one plan slot across sampled executions, the
// data behind DeltaPlan::Explain. `ns`/`rows` are sums over `samples`
// profiled ticks; shares are derived at render time.
struct SlotProfile {
  uint64_t ns = 0;       // self time (this instruction only)
  uint64_t rows = 0;     // rows the instruction produced
  uint64_t samples = 0;  // profiled ticks folded in
  // Profiled ticks this slot actually executed on the vector engine (can
  // trail `samples` on compile-time columnar slots: runtime toggle off, or
  // a per-tick transposition fallback).
  uint64_t vec_samples = 0;
};

// Open-addressing set of tuples referenced by pointer, used for the
// executor's dedupe and difference membership tests. Keys live in the
// operand slots (or the append event) for the duration of one
// instruction, so the set never copies a Tuple — the node allocation and
// second deep copy per row that std::unordered_set<Tuple> would pay.
// Clear is O(1): every slot carries the generation that wrote it, and
// bumping the generation invalidates them all, so a tiny dedupe after a
// huge one does not pay a table-sized wipe.
class TupleRefSet {
 public:
  // Invalidates every element. The table (and its capacity) is retained.
  void Clear() {
    ++generation_;
    size_ = 0;
  }

  // Inserts `t` (by reference) unless a tuple equal to *t is already
  // present; returns whether it was inserted — the dedupe "first seen?".
  bool Insert(const Tuple* t);
  // Membership by value (the difference-operator probe).
  bool Contains(const Tuple& t) const;

  // Live elements since the last Clear / table capacity (0 before the
  // first growth). Exposed for the obs layer's dedupe-pressure gauge.
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    const Tuple* key = nullptr;
    uint64_t generation = 0;
  };

  bool Live(const Slot& slot) const {
    return slot.key != nullptr && slot.generation == generation_;
  }
  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint64_t generation_ = 1;  // default Slot::generation (0) is never live
};

// Per-worker, cross-tick execution state. Everything here follows the
// clear-don't-free discipline, so its footprint converges to the largest
// tick it has served — O((u·|R|)^j) in the Theorem 4.2 parameters, never
// proportional to |C| or to any view size. One scratch serves any number
// of plans (slot storage is sized to the largest), but only one execution
// at a time: give each thread its own.
class PlanScratch {
 public:
  PlanScratch() = default;
  PlanScratch(const PlanScratch&) = delete;
  PlanScratch& operator=(const PlanScratch&) = delete;

  // Reusable-footprint accounting (bench E13 / tests / obs).
  size_t num_slots() const { return slots_.size(); }
  size_t arena_bytes_reserved() const { return arena_.bytes_reserved(); }
  // Arena bytes handed out by the most recent execution (reset on the
  // next Prepare); the obs layer's per-tick arena high-water gauge.
  size_t arena_bytes_allocated() const { return arena_.bytes_allocated(); }
  // Load factor of the dedupe set as left by the most recent execution
  // (0 until the table first grows); the obs layer's dedupe-pressure
  // gauge.
  double dedupe_load_factor() const {
    return seen_.capacity() == 0
               ? 0.0
               : static_cast<double>(seen_.size()) / seen_.capacity();
  }

  // Per-slot profiling for the NEXT execution. When on, Execute reads the
  // clock around every instruction and records self-time and rows into
  // slot_ns()/slot_rows() (indexed by slot, valid until the next Prepare).
  // The caller samples (every Nth tick), folds the arrays into its own
  // SlotProfile accumulator, and turns the flag back off.
  void set_profile_slots(bool on) { profile_slots_ = on; }
  bool profile_slots() const { return profile_slots_; }
  const std::vector<uint64_t>& slot_ns() const { return slot_ns_; }
  const std::vector<uint64_t>& slot_rows() const { return slot_rows_; }
  // 1 per slot that executed on the vector engine in the last profiled
  // execution (0 = row engine). Folded into SlotProfile::vec_samples.
  const std::vector<uint8_t>& slot_vec() const { return slot_vec_; }

  // Runtime toggle for instructions compiled with a vector kernel
  // (MaintenanceOptions::use_columnar_kernels / shell \engine). Pure
  // executor state: flipping it never requires recompiling plans, and the
  // two modes are byte-identical by construction.
  void set_columnar_enabled(bool on) { columnar_enabled_ = on; }
  bool columnar_enabled() const { return columnar_enabled_; }

 private:
  friend class DeltaPlan;

  using GroupMap =
      std::unordered_map<Tuple, std::vector<AggState>, TupleHash, TupleEq>;

  // Clears (without freeing) the first `num_slots` slot buffers and resets
  // the arena, growing the slot array if this plan is the largest yet.
  void Prepare(size_t num_slots);

  // Engine-boundary conversions (executor only). EnsureRowForm
  // materializes a columnar slot into its row buffer; EnsureColForm
  // transposes a row slot into columns, returning false (and latching
  // kColsFailed) when a cell fails the schema type check. Both are no-ops
  // when the requested form is already valid, so a slot shared by several
  // consumers converts at most once per tick.
  void EnsureRowForm(uint32_t slot);
  bool EnsureColForm(uint32_t slot, const Schema& schema);

  // Which representations of a slot are valid this tick. A slot can hold
  // both (transposed or materialized on demand at an engine boundary);
  // kColsFailed latches a transposition type-check failure so shared
  // consumers do not retry it.
  enum SlotForm : uint8_t {
    kRowsValid = 1,
    kColsValid = 2,
    kColsFailed = 4,
  };

  std::vector<std::vector<Tuple>> slots_;
  std::vector<ColumnBatch> col_slots_;  // columnar twin of slots_
  std::vector<uint8_t> slot_form_;      // SlotForm bits per slot
  TupleRefSet seen_;     // dedupe scratch (table retained across ticks)
  TupleRefSet removed_;  // difference scratch
  GroupMap groups_;    // group-by scratch
  Tuple key_;          // reused group-key probe (capacity survives clear())
  VecScratch vec_;     // vectorized dedupe/group tables (retained)
  Arena arena_;        // tick-scoped transients (group output order,
                       // column storage)
  std::vector<ChronicleRow> rows_;  // retained final-output buffer
  bool columnar_enabled_ = true;    // run compiled-columnar instructions
  bool profile_slots_ = false;      // time the next execution's slots
  std::vector<uint64_t> slot_ns_;   // self ns per slot (profiled ticks)
  std::vector<uint64_t> slot_rows_;  // rows per slot (profiled ticks)
  std::vector<uint8_t> slot_vec_;    // vector-engine flag per slot
};

class DeltaPlan {
 public:
  // Executes the plan for one append event. Returns the root delta as a
  // pointer into `scratch` — valid until the scratch's next execution.
  // All rows conceptually carry event.sn (ExecuteToRows stamps it).
  // `stats` may be null; counters match the reference interpreter's.
  Result<const std::vector<Tuple>*> Execute(const AppendEvent& event,
                                            PlanScratch* scratch,
                                            DeltaStats* stats) const;

  // Execute + SN stamping into the scratch's retained row buffer: what
  // every maintenance path folds into its views. The returned pointer is
  // valid until the scratch's next use.
  Result<const std::vector<ChronicleRow>*> ExecuteToRows(
      const AppendEvent& event, PlanScratch* scratch,
      DeltaStats* stats) const;

  // --- inspection (compiler tests, EXPLAIN-style diagnostics) ---
  const std::vector<PlanInstr>& instructions() const { return instrs_; }
  // One slot per instruction: slot i is written by instruction i.
  size_t num_slots() const { return instrs_.size(); }
  uint32_t root_slot() const { return root_slot_; }
  // DAG edges that were resolved to an already-compiled slot — each one is
  // a whole subtree shared instead of recomputed.
  size_t shared_subexpressions() const { return shared_subexpressions_; }
  const CaExprPtr& root() const { return root_; }
  // Instructions the compiler routed to the vector engine.
  size_t vectorized_instructions() const {
    size_t n = 0;
    for (const PlanInstr& instr : instrs_) n += instr.columnar ? 1 : 0;
    return n;
  }

  // One instruction per line: "s3 = Union(s1, s2)".
  std::string ToString() const;

  // EXPLAIN tree, rendered from the root slot down. `profile` (one entry
  // per slot, from the sampled per-slot timings) may be null or empty, in
  // which case only the plan structure is shown; otherwise every line
  // carries the slot's self-time share (all self shares sum to 100%),
  // cumulative share (self + subtree), and rows per sampled tick.
  std::string Explain(const std::vector<SlotProfile>* profile) const;

  // Same data as a flat JSON document for /views/<name>/explain.json:
  // {"view":…,"slots":N,"root":N,"sampled_ticks":N,"plan":[{…}]}.
  // Guaranteed to pass obs::ValidateJson.
  std::string ExplainJson(const std::string& view_name,
                          const std::vector<SlotProfile>* profile) const;

 private:
  friend class PlanCompiler;
  DeltaPlan() = default;

  // Runs instruction `idx` on the vector engine. False = fall back to the
  // row arm for this tick (transposition type-check failed, or the seq
  // join product overflowed).
  bool ExecuteVector(size_t idx, const AppendEvent& event,
                     PlanScratch* scratch, DeltaStats* stats) const;

  CaExprPtr root_;  // keeps every node (and its payloads) alive
  std::vector<PlanInstr> instrs_;
  // Parallel to instrs_: the vector-engine payload of columnar
  // instructions (nullptr for row instructions).
  std::vector<std::unique_ptr<VecInstrInfo>> vec_infos_;
  uint32_t root_slot_ = 0;
  size_t shared_subexpressions_ = 0;
};

using DeltaPlanPtr = std::shared_ptr<const DeltaPlan>;

}  // namespace exec
}  // namespace chronicle

#endif  // CHRONICLE_EXEC_DELTA_PLAN_H_
