// ViewManager: registry and maintenance driver for persistent views, with
// the §5.2 machinery for identifying affected views.
//
// "When multiple views are to be maintained over the same chronicle, each
// update to the chronicle would require checking all the views" — unless
// the system can filter early. The manager supports three routing modes,
// benchmarked against each other in experiment E3:
//
//   kCheckAll — the paper's strawman: every registered view is handed every
//               append; the delta computation discovers emptiness.
//   kGuards   — per-chronicle dependency lists plus guard predicates: a
//               view whose defining expression selects on the base
//               chronicle (σ_p directly above the scan) is skipped when no
//               inserted tuple satisfies p. Sound because an empty scan
//               delta on every inserted chronicle forces an empty view
//               delta (monotonicity).
//   kEqIndex  — additionally, views whose guard contains an equality
//               conjunct `col = constant` are indexed by that constant, so
//               an append probes a hash table instead of testing every
//               view's guard (the "indices on persistent views" of §5.2).

#ifndef CHRONICLE_VIEWS_VIEW_MANAGER_H_
#define CHRONICLE_VIEWS_VIEW_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/delta_plan.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "views/persistent_view.h"

namespace chronicle {

enum class RoutingMode : uint8_t {
  kCheckAll = 0,
  kGuards = 1,
  kEqIndex = 2,
};

// Knobs for the parallel maintenance path. Theorem 4.2 makes each view's
// per-append delta independent of every other view, so once routing has
// selected the affected views their deltas can be computed concurrently.
// The fold stays deterministic: views are partitioned into contiguous
// batches by registration order, each view is touched by exactly one
// worker, and the per-batch MaintenanceReport counters are summed — the
// merged report is byte-identical to the serial one regardless of how the
// OS schedules the workers.
struct MaintenanceOptions {
  // Worker threads for delta computation. 1 (the default) keeps the seed's
  // serial path — no pool is created at all.
  size_t num_threads = 1;
  // Don't split the affected-view list into more batches than would leave
  // each worker at least this many views; below 2x this, run serially.
  // Guards against paying dispatch latency on ticks that touch few views.
  size_t min_views_per_task = 8;
  // Every view's delta runs through the DeltaPlan (src/exec) compiled at
  // registration time. This runs the instructions the compiler marked
  // columnar on the vectorized column kernels (exec/vector_kernels.h);
  // false pins every instruction to the row engine. A pure runtime toggle
  // on PlanScratch — flipping it never recompiles a plan — and byte-for-
  // byte output equivalence with the reference interpreter is fuzzed
  // (tests/plan_equivalence_fuzz_test.cc). The database applies it to its
  // periodic and sliding views too.
  bool use_columnar_kernels = true;
};

// One view's contribution to a tick. Only populated when observability is
// attached (set_observability); the exporter round-trip test reconstructs
// every per-view counter from these.
struct MaintenanceViewOutcome {
  ViewId view = 0;
  size_t delta_rows = 0;  // rows folded into the view this tick
};

// Timing of one fan-out batch. One entry is emitted PER TASK, in batch
// order, even when the batch received zero views — an absent entry would
// let the batch-order merge silently misalign worker timings against
// worker indexes downstream (the bug this struct's discipline fixes).
// The serial path emits a single batch with worker == 0.
struct MaintenanceBatch {
  size_t worker = 0;   // fan-out task index
  size_t views = 0;    // views maintained by this batch
  int64_t nanos = 0;   // wall time of the batch's delta work
};

// Outcome of maintaining all views for one append.
struct MaintenanceReport {
  size_t views_considered = 0;     // views whose delta was computed
  size_t views_updated = 0;        // views that received >= 1 delta row
  size_t views_skipped = 0;        // views filtered out before delta work
  size_t delta_rows_applied = 0;   // total rows folded into views
  // Whole-tick wall time (routing + delta work). 0 unless observability is
  // attached; the database's slow-tick flight recorder keys off it.
  int64_t tick_ns = 0;
  // Per-view outcomes in deterministic work-list (batch-concatenation)
  // order, and per-batch timings. Both empty unless observability is
  // attached — the seed fields above are always maintained.
  std::vector<MaintenanceViewOutcome> views;
  std::vector<MaintenanceBatch> batches;
};

class ViewManager {
 public:
  explicit ViewManager(RoutingMode mode = RoutingMode::kEqIndex);

  RoutingMode routing_mode() const { return mode_; }

  // Registers a view, compiles its delta plan and indexes its guards. The
  // manager owns the view. A plan outside chronicle algebra fails here
  // with the compiler's diagnostic.
  Result<ViewId> AddView(std::unique_ptr<PersistentView> view);

  // Unregisters a view: its materialized state is discarded and it stops
  // being maintained. The slot is tombstoned (ids of other views remain
  // stable) and the name becomes reusable. Restoring an old checkpoint
  // into a renamed/re-created view is guarded by the per-group state-shape
  // checks in RestoreGroup.
  Status DropView(const std::string& name);

  // Number of view slots ever allocated (including tombstones); iterate
  // with GetView and skip NotFound to enumerate live views.
  size_t num_views() const { return views_.size(); }
  size_t num_live_views() const { return live_views_; }
  Result<PersistentView*> GetView(ViewId id);
  Result<const PersistentView*> GetView(ViewId id) const;
  Result<PersistentView*> FindView(const std::string& name);
  Result<const PersistentView*> FindView(const std::string& name) const;

  // Maintains every affected view for one append event. This is the
  // operation whose complexity the whole paper is about. With
  // maintenance_options().num_threads > 1 the per-view delta computations
  // run on the pool; the report is identical either way.
  Result<MaintenanceReport> ProcessAppend(const AppendEvent& event);

  // Replays one historical event into a SINGLE view (the tiered store's
  // backfill path): routing is bypassed — the caller owns event order and
  // coverage — and the delta goes through the same MaintainOne primitive
  // as live maintenance, so a backfilled view converges to the exact state
  // it would have reached had it been registered at SN 0. Serial-path
  // state; must not run concurrently with ProcessAppend.
  Status BackfillView(ViewId id, const AppendEvent& event,
                      MaintenanceReport* report);

  // Base chronicles of one view's plan (what backfill must stream).
  Result<const std::set<ChronicleId>*> ViewChronicles(ViewId id) const;

  // Reconfigures the parallel maintenance path. Creating/destroying the
  // pool happens here, never on the append path. Must not be called while
  // an append is in flight.
  void set_maintenance_options(const MaintenanceOptions& options);
  const MaintenanceOptions& maintenance_options() const { return options_; }

  // Sum of all views' materialized-table footprints.
  size_t MemoryFootprint() const;

  // Always 0 (no cross-view delta cache exists); read by
  // perfbench/src/ladder.cc.
  uint64_t delta_cache_hits() const { return 0; }
  // Always 0, like delta_cache_hits(); read by perfbench/src/ladder.cc.
  uint64_t delta_cache_misses() const { return 0; }

  // Per-view maintenance latency profiling (delta computation + fold).
  // Off by default: the timestamping costs two clock reads per view per
  // tick.
  void set_profiling(bool enabled) { profiling_ = enabled; }
  bool profiling() const { return profiling_; }
  // The latency histogram of one view (empty until profiling is enabled
  // and appends flow).
  Result<const LatencyHistogram*> GetViewLatency(const std::string& name) const;

  // Attaches the observability sinks (owned by the database facade; both
  // may be null to detach). Registers this manager's metric catalog into
  // `metrics` — call once, after construction and before appends flow.
  // With metrics attached, ProcessAppend additionally samples per-view
  // ViewStats, fills MaintenanceReport::views / ::batches, and emits
  // routing / worker / merge spans into `trace`.
  void set_observability(obs::MetricsRegistry* metrics, obs::TraceRing* trace);
  bool observability_enabled() const { return metrics_ != nullptr; }

  // Accumulated statistics of one view (zeroed until observability is
  // attached and appends flow).
  Result<const obs::ViewStats*> GetViewStats(const std::string& name) const;
  // Appends one ViewStatsSnapshot per live view, in registration order.
  void SnapshotViewStats(std::vector<obs::ViewStatsSnapshot>* out) const;

  // Per-slot plan profiling behind EXPLAIN: every `sample_period`-th tick
  // of each compiled view runs with per-instruction clocks, folded into a
  // per-view SlotProfile accumulator. Independent of set_profiling (that
  // one times whole views; this times slots inside one view's plan).
  void set_plan_profiling(bool enabled, size_t sample_period);
  bool plan_profiling() const { return plan_profiling_; }

  // EXPLAIN for one view: the compiled plan tree annotated with the
  // sampled per-slot time shares and row counts (structure only until
  // samples exist).
  Result<std::string> ExplainView(const std::string& name) const;
  Result<std::string> ExplainViewJson(const std::string& name) const;
  // The raw accumulator (empty until a profiled tick ran); exposed for the
  // database's flight recorder and tests.
  Result<const std::vector<exec::SlotProfile>*> GetViewSlotProfile(
      const std::string& name) const;

 private:
  // One equality conjunct `column = literal` of a guard.
  struct EqConstraint {
    size_t column;
    Value literal;
  };
  // The guard of one base-chronicle scan inside a view's plan.
  struct ScanGuard {
    ChronicleId chronicle;
    // Conjunction of the Select predicates sitting directly above the scan
    // (owned clones, bound to the chronicle payload schema). Empty means
    // the scan is unguarded: any insert can produce delta rows.
    std::vector<ScalarExprPtr> predicates;
    std::vector<EqConstraint> eq_constraints;
  };
  struct ViewEntry {
    std::unique_ptr<PersistentView> view;
    // Compiled at AddView, never on the append path; null only once the
    // view is dropped.
    exec::DeltaPlanPtr compiled;
    std::vector<ScanGuard> guards;      // one per scan in the plan
    std::set<ChronicleId> chronicles;   // base chronicles the view reads
    bool eq_indexed = false;            // participates in the eq index
    LatencyHistogram latency;           // populated when profiling is on
    // Accumulated maintenance statistics (observability). Single-writer:
    // contiguous batch partitioning gives each view to exactly one worker
    // per tick, and ThreadPool::Wait orders ticks.
    obs::ViewStats stats;
    // EXPLAIN profile: per-slot self-time/rows folded from sampled ticks.
    // Same single-writer discipline as `stats`.
    std::vector<exec::SlotProfile> slot_profile;
    uint64_t profile_clock = 0;  // ticks seen while plan profiling was on
  };

  // Extracts scan guards from a plan.
  static void CollectGuards(const CaExpr& expr,
                            std::vector<const ScalarExpr*>* pending,
                            std::vector<ScanGuard>* out);
  // Pulls `col = literal` conjuncts out of a guard predicate.
  static void CollectEqConstraints(const ScalarExpr& pred,
                                   std::vector<EqConstraint>* out);

  // True if the event can possibly produce delta rows for the view.
  Result<bool> GuardsPass(const ViewEntry& entry, const AppendEvent& event) const;

  // Computes and folds one view's delta for the tick, accumulating into
  // `report`. `scratch` is the reused-across-ticks execution state (serial
  // path: the manager's; parallel path: one per worker). `worker` is the
  // fan-out task index (0 on the serial path), used to pick the metric
  // shard.
  Status MaintainOne(ViewId id, const AppendEvent& event,
                     exec::PlanScratch* scratch, size_t worker,
                     MaintenanceReport* report);

  // Runs MaintainOne over `work` on the pool, one contiguous batch per
  // worker, and merges the per-batch reports into `report`.
  Status MaintainParallel(const std::vector<ViewId>& work,
                          const AppendEvent& event, MaintenanceReport* report);

  // Observability sinks (null = detached, zero overhead) plus the metric
  // ids resolved at attach time — the append path never hashes a name.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  obs::MetricId m_view_ticks_ = 0;      // counter: deltas computed
  obs::MetricId m_view_delta_rows_ = 0; // counter: rows folded into views
  obs::MetricId m_parallel_ticks_ = 0;  // counter: ticks that fanned out
  obs::MetricId m_tick_ns_ = 0;         // histogram: whole-tick latency
  obs::MetricId m_routing_ns_ = 0;      // histogram: candidate+guard phase
  obs::MetricId m_batch_views_ = 0;     // histogram: views per worker batch
  obs::MetricId m_worker_ns_ = 0;       // histogram: per-batch latency
  obs::MetricId m_backfill_events_ = 0; // counter: events replayed
  obs::MetricId m_backfill_rows_ = 0;   // counter: chronicle rows replayed

  RoutingMode mode_;
  bool profiling_ = false;
  bool plan_profiling_ = false;     // per-slot EXPLAIN sampling
  size_t plan_sample_period_ = 16;  // profile every Nth tick per view
  size_t live_views_ = 0;
  // Compiled-execution scratch, reused across ticks (clear, don't free).
  // scratch_ serves the serial path; worker_scratch_[t] is owned by task t
  // of the parallel fan-out — no shared mutable state between workers.
  exec::PlanScratch scratch_;
  std::vector<std::unique_ptr<exec::PlanScratch>> worker_scratch_;
  MaintenanceOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // non-null iff options_.num_threads > 1
  std::vector<ViewEntry> views_;
  std::unordered_map<std::string, ViewId> by_name_;
  // chronicle -> views that depend on it and are NOT eq-indexed.
  std::unordered_map<ChronicleId, std::vector<ViewId>> residual_by_chronicle_;
  // (chronicle, column) -> literal -> views guarded by `column = literal`.
  std::unordered_map<ChronicleId,
                     std::unordered_map<size_t,
                                        std::unordered_map<Value, std::vector<ViewId>,
                                                           ValueHash>>>
      eq_index_;
};

}  // namespace chronicle

#endif  // CHRONICLE_VIEWS_VIEW_MANAGER_H_
