#include "ladder.h"

#include <algorithm>

#include "db/database.h"
#include "exec/plan_compiler.h"
#include "workloads.h"

namespace perfbench {

using chronicle::ChronicleDatabase;
using chronicle::DatabaseOptions;
namespace cql = chronicle::cql;
namespace net = chronicle::net;
namespace obs = chronicle::obs;

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "exec.ns_per_row",         "exec.compiled_share",
      "exec.vectorized_share",   "views.ns_per_row",
      "views.marginal_ns_per_row", "views.useful_ratio",
      "views.delta_cache_hit_ratio", "views.parallel_speedup",
      "periodic.ns_per_row",     "db.ns_per_row",
      "db.marginal_ns_per_row",  "wal.ns_per_row",
      "wal.marginal_ns_per_row", "wal.bytes_per_row",
      "wal.ticks_per_sync",      "store.ns_per_row",
      "store.marginal_ns_per_row", "store.rows_sealed",
      "store.bytes_per_row",     "shard.ns_per_row",
      "shard.marginal_ns_per_row", "shard.enqueue_ns_per_row",
      "shard.flush_wait_us",     "shard.scaling",
      "shard.route_skew",        "shard.lane_depth_max",
      "shard.merge_scan_us",     "cql.ns_per_row",
      "cql.marginal_ns_per_row", "cql.select_us",
      "net.ns_per_row",          "net.marginal_ns_per_row",
      "net.sql_overhead_us",     "net.reject_ratio",
      "net.queue_wait_us",       "obs.bench_trace_overhead",
      "obs.stage_agreement",     "obs.maintain_stage_agreement",
  };
  return names;
}

namespace {

constexpr uint64_t kMinTicks = 32;
constexpr int kReadSamples = 200;
constexpr uint64_t kDrainEvery = 16;
constexpr uint64_t kFlushEvery = 64;

// Time spent inside the measured calls of one rung.
struct Rung {
  int64_t timed_ns = 0;
  uint64_t ticks = 0;
  uint64_t rows = 0;
  double ns_per_row() const {
    return rows == 0 ? 0 : static_cast<double>(timed_ns) / static_cast<double>(rows);
  }
};

// Drives ticks 0, 1, ... through `step` until `budget_s` of wall time (and
// at least kMinTicks ticks) have passed. `step(i)` prepares tick i untimed
// and returns the nanoseconds its measured call took.
template <typename Step>
Rung DriveTicks(const Inputs& in, double budget_s, SpanRecorder* spans,
                const char* rung_name, Step step) {
  ScopedSpan rung_span(spans, rung_name, 0);
  Rung r;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (uint64_t i = 0; r.ticks < kMinTicks || NowNs() < deadline; ++i) {
    r.timed_ns += step(i);
    ++r.ticks;
    r.rows += in.rows_per_tick;
  }
  return r;
}

double MedianUs(std::vector<double> ns) { return Median(std::move(ns)) / 1e3; }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

DatabaseOptions EngineOptions(const std::string& workload) {
  DatabaseOptions options;
  options.maintenance.num_threads = MaintenanceThreads(workload);
  return options;
}

// A one-tick AppendMany batch, copied from the pool outside the timed call.
std::vector<std::vector<Tuple>> OneTick(const Inputs& in, uint64_t i) {
  return {in.Tick(i)};
}

struct LadderState {
  const std::string& workload;
  const Options& opt;
  const Inputs& in;
  double budget;  // seconds per rung
  SpanRecorder* spans;
  Report* report;
  bool periodic;  // the workload registers sliding/periodic views
  uint64_t ops = 0;
  uint64_t failed = 0;
  void Count(bool ok) {
    ++ops;
    if (!ok) ++failed;
  }
};

Rung ExecRung(LadderState* st) {
  auto session = OpenSession(st->workload, st->opt.seed, EngineOptions(st->workload),
                             "NONE", true, false);
  ChronicleDatabase* db = session->db();
  const auto calls = Unwrap(db->group().FindChronicle("calls"), "find calls");
  std::vector<chronicle::exec::DeltaPlanPtr> plans;
  size_t vectorized = 0;
  size_t slots = 0;
  for (const std::string& name : PersistentViews(st->workload)) {
    const chronicle::PersistentView* view = Unwrap(db->GetView(name), "view " + name);
    plans.push_back(Unwrap(chronicle::exec::PlanCompiler::Compile(view->plan()),
                           "compile " + name));
    vectorized += plans.back()->vectorized_instructions();
    slots += plans.back()->num_slots();
  }
  st->report->Add("exec.vectorized_share", Ratio(vectorized, slots), "ratio",
                  std::to_string(vectorized) + "/" + std::to_string(slots) + " slots");
  chronicle::exec::PlanScratch scratch;
  return DriveTicks(st->in, st->budget, st->spans, "ladder.exec", [&](uint64_t i) {
    // The chronicle append (RETAIN NONE) only mints the event; views are
    // not maintained, so the timed region is plan execution alone.
    const chronicle::AppendEvent event =
        Unwrap(db->group().Append(calls, st->in.Tick(i)), "mint event");
    ScopedSpan span(st->spans, "exec.execute", i);
    const int64_t t0 = NowNs();
    for (const auto& plan : plans) {
      st->Count(plan->Execute(event, &scratch, nullptr).ok());
    }
    return NowNs() - t0;
  });
}

// ViewManager::ProcessAppend on `threads` maintenance threads. Fills the
// view statistics when `report_stats`.
Rung ViewsRung(LadderState* st, size_t threads, bool report_stats) {
  DatabaseOptions options;
  options.maintenance.num_threads = threads;
  auto session = OpenSession(st->workload, st->opt.seed, options, "NONE", true, false);
  ChronicleDatabase* db = session->db();
  const auto calls = Unwrap(db->group().FindChronicle("calls"), "find calls");
  Rung r = DriveTicks(st->in, st->budget, st->spans,
                      threads == 1 ? "ladder.views_1" : "ladder.views_n",
                      [&](uint64_t i) {
                        const chronicle::AppendEvent event = Unwrap(
                            db->group().Append(calls, st->in.Tick(i)), "mint event");
                        ScopedSpan span(st->spans, "views.process_append", i);
                        const int64_t t0 = NowNs();
                        st->Count(db->view_manager().ProcessAppend(event).ok());
                        return NowNs() - t0;
                      });
  if (report_stats) {
    const obs::StatsSnapshot snap = session->CollectStats();
    uint64_t ticks = 0, updates = 0, compiled = 0, interpreted = 0;
    for (const obs::ViewStatsSnapshot& v : snap.views) {
      ticks += v.stats.ticks;
      updates += v.stats.updates;
      compiled += v.stats.compiled_ticks;
      interpreted += v.stats.interpreted_ticks;
    }
    const double hits = static_cast<double>(db->view_manager().delta_cache_hits());
    const double misses = static_cast<double>(db->view_manager().delta_cache_misses());
    st->report->Add("exec.compiled_share", Ratio(compiled, compiled + interpreted),
                    "ratio", std::to_string(compiled + interpreted) + " view ticks");
    st->report->Add("views.useful_ratio", Ratio(updates, ticks), "ratio",
                    std::to_string(ticks) + " view ticks");
    st->report->Add("views.delta_cache_hit_ratio", Ratio(hits, hits + misses), "ratio",
                    std::to_string(static_cast<uint64_t>(hits + misses)) + " probes");
  }
  return r;
}

// ChronicleDatabase::AppendMany, one tick per call.
Rung AppendManyRung(LadderState* st, cql::Session* session, const char* name) {
  ChronicleDatabase* db = session->db();
  return DriveTicks(st->in, st->budget, st->spans, name, [&](uint64_t i) {
    auto batch = OneTick(st->in, i);
    ScopedSpan span(st->spans, "db.append_many", i);
    const int64_t t0 = NowNs();
    st->Count(db->AppendMany("calls", std::move(batch)).ok());
    return NowNs() - t0;
  });
}

std::unique_ptr<cql::Session> WorkloadSession(LadderState* st, DatabaseOptions options,
                                              const std::string& retain) {
  return OpenSession(st->workload, st->opt.seed, std::move(options), retain, true,
                     st->periodic);
}

struct ShardRun {
  double wall_ns_per_row = 0;
  double enqueue_ns_per_row = 0;
  double flush_wait_us = 0;
  double route_skew = 0;
  double lane_depth_max = 0;
  double merge_scan_us = 0;
};

// The durable_shards pipeline: async EnqueueAppend from one producer with
// per-shard WALs and tiered stores, flushed every kFlushEvery ticks.
ShardRun ShardRung(LadderState* st, size_t shards) {
  const std::string wal = FreshDir(st->opt.work_dir + "/ladder-shard-wal");
  const std::string data = FreshDir(st->opt.work_dir + "/ladder-shard-data");
  ShardRun out;
  {
    auto db = OpenDurable(shards, wal, data);
    Check(db->AttachWals(), "attach WALs");
    Check(db->StartIngest(1), "start ingest");
    int64_t enqueue_ns = 0;
    int64_t flush_ns = 0;
    uint64_t flushes = 0;
    uint64_t depth_max = 0;
    auto flush = [&](uint64_t i) {
      ScopedSpan span(st->spans, "shard.flush", i);
      const int64_t t0 = NowNs();
      st->Count(db->Flush().ok());
      flush_ns += NowNs() - t0;
      ++flushes;
    };
    const int64_t start = NowNs();
    Rung r = DriveTicks(st->in, st->budget, st->spans,
                        shards == 1 ? "ladder.shard_1" : "ladder.shard_n",
                        [&](uint64_t i) {
                          std::vector<Tuple> tuples = st->in.Tick(i);
                          int64_t took = 0;
                          {
                            ScopedSpan span(st->spans, "shard.enqueue", i);
                            const int64_t t0 = NowNs();
                            st->Count(db->EnqueueAppend(0, "calls", std::move(tuples)).ok());
                            took = NowNs() - t0;
                          }
                          enqueue_ns += took;
                          if (i % kFlushEvery == kFlushEvery / 2) {
                            for (const auto& s : db->CollectStats().sharding.shards) {
                              depth_max = std::max(depth_max, s.queue_depth);
                            }
                          }
                          if (i % kFlushEvery == kFlushEvery - 1) flush(i);
                          return took;
                        });
    flush(r.ticks);
    const int64_t wall = NowNs() - start;
    out.wall_ns_per_row = static_cast<double>(wall) / static_cast<double>(r.rows);
    out.enqueue_ns_per_row = static_cast<double>(enqueue_ns) / static_cast<double>(r.rows);
    out.flush_wait_us = static_cast<double>(flush_ns) / 1e3 / static_cast<double>(flushes);
    out.lane_depth_max = static_cast<double>(depth_max);
    uint64_t max_rows = 0, sum_rows = 0;
    const auto snap = db->CollectStats();
    for (const auto& s : snap.sharding.shards) {
      max_rows = std::max(max_rows, s.routed_rows);
      sum_rows += s.routed_rows;
    }
    out.route_skew = Ratio(static_cast<double>(max_rows) * snap.sharding.shards.size(),
                           static_cast<double>(sum_rows));
    std::vector<double> scans;
    for (int k = 0; k < kReadSamples; ++k) {
      ScopedSpan span(st->spans, "shard.scan_view", k);
      const int64_t t0 = NowNs();
      st->Count(db->ScanView("by_region").ok());
      scans.push_back(static_cast<double>(NowNs() - t0));
    }
    out.merge_scan_us = MedianUs(std::move(scans));
    Check(db->StopIngest(), "stop ingest");
    Check(db->CloseWals(), "close WALs");
  }
  RemoveDir(wal);
  RemoveDir(data);
  return out;
}

double StageMeanNs(const obs::StatsSnapshot& snap, const std::string& stage) {
  for (const auto& s : snap.req.stages) {
    if (s.stage == stage) return s.latency.count() == 0 ? 0 : s.latency.MeanNanos();
  }
  return 0;
}

// Ladder marginal (per tick) over the program's own stage histogram. Flags
// a disagreement beyond 20% either way.
double Agreement(LadderState* st, const std::string& rung, double ladder_ns,
                 const std::string& stage, double stage_ns) {
  const double ratio = Ratio(ladder_ns, stage_ns);
  if (ratio < 1 / 1.2 || ratio > 1.2) {
    st->report->notes.push_back("stage agreement: " + rung + " rung " +
                                std::to_string(ladder_ns / 1e3) + " us/tick vs " +
                                stage + " stage mean " + std::to_string(stage_ns / 1e3) +
                                " us: DISAGREE beyond 20%");
  }
  return ratio;
}

}  // namespace

void RunLadder(const std::string& workload, const Options& opt, const Inputs& in,
               double seconds, SpanRecorder* spans, Report* report) {
  constexpr int kRungs = 12;
  LadderState st{workload, opt, in, seconds / kRungs, spans, report,
                 workload == "view_fanout"};
  const double rpt = static_cast<double>(in.rows_per_tick);
  const size_t threads = MaintenanceThreads(workload);

  const Rung exec = ExecRung(&st);
  const Rung views_1 = ViewsRung(&st, 1, threads == 1);
  const Rung views_n = ViewsRung(&st, NumCores(), threads != 1);
  const Rung& views = threads == 1 ? views_1 : views_n;

  // Sliding and periodic views alone, over an engine with no views at all.
  Rung bare, periodic;
  {
    auto s = OpenSession(workload, opt.seed, EngineOptions(workload), "NONE", false, false);
    bare = AppendManyRung(&st, s.get(), "ladder.bare");
  }
  {
    auto s = OpenSession(workload, opt.seed, EngineOptions(workload), "NONE", false, true);
    periodic = AppendManyRung(&st, s.get(), "ladder.periodic");
  }

  Rung db;
  {
    auto s = WorkloadSession(&st, EngineOptions(workload), "NONE");
    db = AppendManyRung(&st, s.get(), "ladder.db");
  }

  Rung wal;
  double wal_bytes = 0, ticks_per_sync = 0;
  {
    const std::string dir = FreshDir(opt.work_dir + "/ladder-wal");
    auto s = WorkloadSession(&st, EngineOptions(workload), "NONE");
    Check(s->AttachWal(dir), "attach WAL");
    wal = AppendManyRung(&st, s.get(), "ladder.wal");
    const obs::StatsSnapshot snap = s->CollectStats();
    ticks_per_sync = Ratio(snap.wal.group_commit_ticks, snap.wal.syncs);
    Check(s->DetachWal(), "detach WAL");
    wal_bytes = static_cast<double>(DirBytes(dir));
    s.reset();
    RemoveDir(dir);
  }

  Rung store;
  double rows_sealed = 0, store_bytes = 0;
  {
    const std::string wal_dir = FreshDir(opt.work_dir + "/ladder-store-wal");
    const std::string data_dir = FreshDir(opt.work_dir + "/ladder-store-data");
    DatabaseOptions options = EngineOptions(workload);
    options.storage.data_dir = data_dir;
    auto s = WorkloadSession(&st, options, "HOT " + std::to_string(kHotRows));
    Check(s->AttachWal(wal_dir), "attach WAL");
    store = AppendManyRung(&st, s.get(), "ladder.store");
    rows_sealed = static_cast<double>(s->CollectStats().storage.rows_sealed);
    Check(s->DetachWal(), "detach WAL");
    store_bytes = static_cast<double>(DirBytes(data_dir));
    s.reset();
    RemoveDir(wal_dir);
    RemoveDir(data_dir);
  }

  const ShardRun shard_n = ShardRung(&st, 3);
  const ShardRun shard_1 = ShardRung(&st, 1);

  Rung cql_rung;
  double select_us = 0;
  {
    auto s = WorkloadSession(&st, EngineOptions(workload), "NONE");
    cql_rung = DriveTicks(in, st.budget, spans, "ladder.cql", [&](uint64_t i) {
      auto batch = OneTick(in, i);
      ScopedSpan span(spans, "cql.append_rows", i);
      const int64_t t0 = NowNs();
      st.Count(s->AppendRows("calls", std::move(batch)).ok());
      return NowNs() - t0;
    });
    std::vector<double> selects;
    for (int k = 0; k < kReadSamples; ++k) {
      const std::string sql = PointQuerySql(workload, k, in.Key(k));
      ScopedSpan span(spans, "cql.select", k);
      const int64_t t0 = NowNs();
      st.Count(s->ExecuteSql(sql).ok());
      selects.push_back(static_cast<double>(NowNs() - t0));
    }
    select_us = MedianUs(std::move(selects));
  }

  // /v1/append over loopback with request sampling on, so the program's
  // stage histograms can be set beside the ladder.
  Rung net_rung;
  double sql_us = 0, queue_wait_us = 0, append_stage_ns = 0, maintain_stage_ns = 0;
  RunResult net_counts;
  {
    DatabaseOptions options = EngineOptions(workload);
    options.set_request_trace(4096, 1.0);
    auto wire = OpenWire(workload, opt.seed, options, net::NetOptions());
    std::vector<std::string> bodies;
    for (const auto& tick : in.ticks) bodies.push_back(EncodeTsv(tick));
    const int64_t start = NowNs();
    net_rung = DriveTicks(in, st.budget, spans, "ladder.net", [&](uint64_t i) {
      {
        ScopedSpan span(spans, "net.append", i);
        PostAppend(wire.get(), bodies[i % bodies.size()], &net_counts);
      }
      if (i % kDrainEvery == kDrainEvery - 1) {
        ScopedSpan span(spans, "net.drain", i);
        st.Count(wire->service->Drain().ok());
      }
      return int64_t{0};
    });
    st.Count(wire->service->Drain().ok());
    net_rung.timed_ns = NowNs() - start;  // pipelined: wall time to the drain
    const obs::StatsSnapshot snap = wire->session->CollectStats();
    queue_wait_us = StageMeanNs(snap, "queue_wait") / 1e3;
    append_stage_ns = StageMeanNs(snap, "append");
    maintain_stage_ns = StageMeanNs(snap, "maintain");
    std::vector<double> sqls;
    for (int k = 0; k < kReadSamples; ++k) {
      const std::string sql = PointQuerySql(workload, k, in.Key(k));
      ScopedSpan span(spans, "net.sql", k);
      const int64_t t0 = NowNs();
      auto resp = wire->sql->Post("/v1/sql", sql, wire->headers);
      st.Count(resp.ok() && resp->status == 200);
      sqls.push_back(static_cast<double>(NowNs() - t0));
    }
    sql_us = MedianUs(std::move(sqls));
  }
  st.ops += net_counts.attempted;
  st.failed += net_counts.failed;

  const std::string n = std::to_string(NumCores());
  report->Add("exec.ns_per_row", exec.ns_per_row(), "ns",
              std::to_string(exec.rows) + " rows");
  report->Add("views.ns_per_row", views.ns_per_row(), "ns",
              std::to_string(views.rows) + " rows, " + std::to_string(threads) + " threads");
  report->Add("views.marginal_ns_per_row", views.ns_per_row() - exec.ns_per_row(), "ns");
  report->Add("views.parallel_speedup", Ratio(views_1.ns_per_row(), views_n.ns_per_row()),
              "ratio", n + " threads vs 1");
  report->Add("periodic.ns_per_row", periodic.ns_per_row() - bare.ns_per_row(), "ns",
              "8 sliding/periodic views over a view-less engine");
  report->Add("db.ns_per_row", db.ns_per_row(), "ns", std::to_string(db.rows) + " rows");
  report->Add("db.marginal_ns_per_row", db.ns_per_row() - views.ns_per_row(), "ns");
  report->Add("wal.ns_per_row", wal.ns_per_row(), "ns", "fsync=batch");
  report->Add("wal.marginal_ns_per_row", wal.ns_per_row() - db.ns_per_row(), "ns");
  report->Add("wal.bytes_per_row", Ratio(wal_bytes, wal.rows), "B");
  report->Add("wal.ticks_per_sync", ticks_per_sync, "ticks");
  report->Add("store.ns_per_row", store.ns_per_row(), "ns",
              "RETAIN HOT " + std::to_string(kHotRows));
  report->Add("store.marginal_ns_per_row", store.ns_per_row() - wal.ns_per_row(), "ns");
  report->Add("store.rows_sealed", rows_sealed, "rows",
              "of " + std::to_string(store.rows));
  report->Add("store.bytes_per_row", Ratio(store_bytes, store.rows), "B");
  report->Add("shard.ns_per_row", shard_n.wall_ns_per_row, "ns",
              "3 shards, wall time to the last flush");
  report->Add("shard.marginal_ns_per_row", shard_n.wall_ns_per_row - store.ns_per_row(),
              "ns");
  report->Add("shard.enqueue_ns_per_row", shard_n.enqueue_ns_per_row, "ns");
  report->Add("shard.flush_wait_us", shard_n.flush_wait_us, "us");
  report->Add("shard.scaling", Ratio(shard_1.wall_ns_per_row, shard_n.wall_ns_per_row), "ratio",
              "3 shards vs 1");
  report->Add("shard.route_skew", shard_n.route_skew, "ratio", "max/mean routed rows");
  report->Add("shard.lane_depth_max", shard_n.lane_depth_max, "rows");
  report->Add("shard.merge_scan_us", shard_n.merge_scan_us, "us",
              "n=" + std::to_string(kReadSamples));
  report->Add("cql.ns_per_row", cql_rung.ns_per_row(), "ns");
  report->Add("cql.marginal_ns_per_row", cql_rung.ns_per_row() - db.ns_per_row(), "ns");
  report->Add("cql.select_us", select_us, "us", "n=" + std::to_string(kReadSamples));
  report->Add("net.ns_per_row", net_rung.ns_per_row(), "ns", "wall time to the drain");
  report->Add("net.marginal_ns_per_row", net_rung.ns_per_row() - cql_rung.ns_per_row(),
              "ns");
  report->Add("net.sql_overhead_us", sql_us - select_us, "us",
              "n=" + std::to_string(kReadSamples));
  report->Add("net.reject_ratio", Ratio(net_counts.rejected, net_counts.attempted),
              "ratio", std::to_string(net_counts.attempted) + " POSTs");
  report->Add("net.queue_wait_us", queue_wait_us, "us", "queue_wait stage mean");
  report->Add("obs.stage_agreement",
              Agreement(&st, "cql", cql_rung.ns_per_row() * rpt, "append", append_stage_ns),
              "ratio", "cql rung per tick / append stage mean");
  report->Add("obs.maintain_stage_agreement",
              Agreement(&st, "views", views.ns_per_row() * rpt, "maintain",
                        maintain_stage_ns),
              "ratio", "views rung per tick / maintain stage mean");
  report->attempted += st.ops;
  report->failed += st.failed;
}

}  // namespace perfbench
