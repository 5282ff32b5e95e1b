#include "workloads.h"

#include <algorithm>

#include "aggregates/aggregate.h"
#include "common/random.h"
#include "db/database.h"
#include "views/summary_spec.h"
#include "workload/call_records.h"

namespace perfbench {

using chronicle::ChronicleDatabase;
using chronicle::DatabaseOptions;
using chronicle::Value;
namespace cql = chronicle::cql;
namespace net = chronicle::net;
namespace shard = chronicle::shard;

const char* const kWorkloads[3] = {"wire_ingest", "view_fanout",
                                   "durable_shards"};

bool KnownWorkload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

namespace {

const char* const kRegions[8] = {"NJ", "NY", "CA", "TX",
                                 "IL", "WA", "FL", "MA"};
const char* const kPlans[4] = {"basic", "plus", "pro", "max"};

constexpr int kFanoutFilterThresholds = 12;  // x 8 regions = 96 CA_1 views
constexpr int kFanoutJoinGroups = 3;         // x 8 = 24 CA_join views
constexpr int kFanoutWindowed = 4;           // x 2 (sliding, periodic) = 8

// Point reads and relation updates interleave with the appends at these
// tick periods.
constexpr uint64_t kQueryEvery = 4;
constexpr uint64_t kFanoutUpdateEvery = 64;
constexpr uint64_t kWireDrainEvery = 16;  // 4096 rows: half the 429 queue
constexpr uint64_t kDurableFlushEvery = 64;
constexpr int kDurableReadsPerFlush = 4;

std::string FanoutFilterView(int r, int t) {
  return std::string("f_") + kRegions[r] + "_" + std::to_string(t);
}

std::string JoinView(int g, int k) {
  return "j" + std::to_string(g) + "_" + std::to_string(k);
}

// One proactive relation update of view_fanout, a pure function of (seed, j)
// so the oracle replays the same sequence.
std::string FanoutUpdateSql(uint64_t seed, uint64_t j) {
  chronicle::Rng rng(seed * 1000003 + j);
  const int64_t acct = static_cast<int64_t>(rng.Uniform(10000));
  return "UPDATE cust SET home = '" + std::string(kRegions[rng.Uniform(8)]) +
         "' WHERE acct = " + std::to_string(acct) + ";";
}

// Point reads of view_fanout rotate over the views grouped by caller.
std::vector<std::string> FanoutQueryViews() {
  std::vector<std::string> out;
  for (int r = 0; r < 8; ++r) {
    for (int t = 0; t < kFanoutFilterThresholds; t += 3) {
      out.push_back(FanoutFilterView(r, t));
    }
  }
  return out;
}

}  // namespace

size_t RowsPerTick(const std::string& workload) {
  return workload == "view_fanout" ? 16 : 256;
}

size_t PoolTicks(const std::string& workload) {
  return workload == "view_fanout" ? 4096 : 512;
}

size_t MaintenanceThreads(const std::string& workload) {
  return workload == "view_fanout" ? NumCores() : 1;
}

std::string WorkloadDdl(const std::string& workload, const std::string& retain,
                        bool persistent, bool periodic) {
  std::string ddl =
      "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
      "charge DOUBLE) RETAIN " +
      retain + ";\n";
  if (workload == "wire_ingest") {
    if (persistent) {
      ddl +=
          "CREATE VIEW by_caller AS SELECT caller, SUM(minutes) AS m, "
          "COUNT(*) AS n, MAX(charge) AS top FROM calls GROUP BY caller;\n"
          "CREATE VIEW by_region AS SELECT region, SUM(minutes) AS m, "
          "COUNT(*) AS n FROM calls GROUP BY region;\n";
    }
  } else if (workload == "durable_shards") {
    if (persistent) {
      ddl +=
          "CREATE VIEW by_caller AS SELECT caller, SUM(minutes) AS m, "
          "COUNT(*) AS n FROM calls GROUP BY caller;\n"
          "CREATE VIEW by_region AS SELECT region, SUM(minutes) AS m, "
          "COUNT(*) AS n, MAX(minutes) AS hi FROM calls GROUP BY region;\n";
    }
  } else {
    ddl += "CREATE RELATION cust (acct INT64, plan STRING, home STRING) KEY acct;\n";
    if (persistent) {
      // CA_1: distinct region x minutes guards, so no two views share work.
      for (int r = 0; r < 8; ++r) {
        for (int t = 0; t < kFanoutFilterThresholds; ++t) {
          const std::string group = t % 3 == 0   ? "caller"
                                    : t % 3 == 1 ? "minutes"
                                                 : "region";
          ddl += "CREATE VIEW " + FanoutFilterView(r, t) + " AS SELECT " +
                 group + ", SUM(minutes) AS m, COUNT(*) AS n FROM calls WHERE "
                 "region = '" + kRegions[r] + "' AND minutes > " +
                 std::to_string(t * 10) + " GROUP BY " + group + ";\n";
        }
      }
      // CA_join: each group of eight joins cust the same way and differs
      // only in its guard.
      for (int g = 0; g < kFanoutJoinGroups; ++g) {
        for (int k = 0; k < 8; ++k) {
          const std::string group = g == 0 ? "home" : g == 1 ? "plan" : "home, plan";
          const std::string guard =
              g == 1 ? std::string("region = '") + kRegions[k] + "'"
                     : "minutes > " + std::to_string(k * 15);
          ddl += "CREATE VIEW " + JoinView(g, k) + " AS SELECT " + group +
                 ", SUM(minutes) AS m, COUNT(*) AS n FROM calls JOIN cust ON "
                 "caller = acct WHERE " + guard + " GROUP BY " + group + ";\n";
        }
      }
    }
  }
  // Sliding and periodic views read only `calls`, so the cost ladder can
  // register them on any workload's schema.
  if (periodic) {
    for (int k = 0; k < kFanoutWindowed; ++k) {
      const std::string guard = "minutes > " + std::to_string(k * 20);
      ddl += "CREATE SLIDING VIEW s" + std::to_string(k) +
             " AS SELECT region, SUM(minutes) AS m, COUNT(*) AS n FROM calls "
             "WHERE " + guard + " GROUP BY region OVER WINDOW 30 PANES OF 64;\n";
      ddl += "CREATE PERIODIC VIEW p" + std::to_string(k) +
             " AS SELECT region, SUM(minutes) AS m FROM calls WHERE " + guard +
             " GROUP BY region OVER PERIOD 1024;\n";
    }
  }
  return ddl;
}

std::vector<std::string> PersistentViews(const std::string& workload) {
  if (workload == "wire_ingest") return {"by_caller", "by_region"};
  if (workload == "durable_shards") return DurableViews();
  std::vector<std::string> out;
  for (int r = 0; r < 8; ++r) {
    for (int t = 0; t < kFanoutFilterThresholds; ++t) {
      out.push_back(FanoutFilterView(r, t));
    }
  }
  for (int g = 0; g < kFanoutJoinGroups; ++g) {
    for (int k = 0; k < 8; ++k) out.push_back(JoinView(g, k));
  }
  return out;
}

void LoadRelations(const std::string& workload, uint64_t seed,
                   cql::Session* session) {
  if (workload != "view_fanout") return;
  chronicle::Rng rng(seed ^ 0xc0ffeeULL);
  ChronicleDatabase* db = session->db();
  for (int64_t acct = 0; acct < 10000; ++acct) {
    Check(db->InsertInto("cust", Tuple{Value(acct), Value(kPlans[rng.Uniform(4)]),
                                       Value(kRegions[rng.Uniform(8)])}),
          "load cust");
  }
}

std::unique_ptr<cql::Session> OpenSession(const std::string& workload,
                                          uint64_t seed, DatabaseOptions db,
                                          const std::string& retain,
                                          bool persistent, bool periodic) {
  auto session = Unwrap(cql::Session::Open(std::move(db)), "open session");
  Check(session->ExecuteScript(WorkloadDdl(workload, retain, persistent, periodic))
            .status(),
        "DDL");
  LoadRelations(workload, seed, session.get());
  return session;
}

std::string PointQuerySql(const std::string& workload, uint64_t i, int64_t key) {
  if (workload == "wire_ingest") {
    // A SELECT on a view is a scan plus filter: on by_caller's 10k groups it
    // would hold the session mutex for milliseconds and bound ingest, so the
    // wire read goes to the 8-group by_region view.
    return std::string("SELECT * FROM by_region WHERE region = '") +
           kRegions[static_cast<uint64_t>(key) % 8] + "';";
  }
  static const std::vector<std::string> fanout = FanoutQueryViews();
  const std::string view =
      workload == "view_fanout" ? fanout[i % fanout.size()] : "by_caller";
  return "SELECT * FROM " + view + " WHERE caller = " + std::to_string(key) + ";";
}

const std::vector<std::string>& DurableViews() {
  static const std::vector<std::string> views = {"by_caller", "by_region"};
  return views;
}

namespace {

chronicle::SummarySpec ByCallerSpec() {
  return Unwrap(chronicle::SummarySpec::GroupBy(
                    chronicle::CallRecordGenerator::RecordSchema(), {"caller"},
                    {chronicle::AggSpec::Sum("minutes", "m"),
                     chronicle::AggSpec::Count("n")}),
                "by_caller spec");
}

chronicle::SummarySpec ByRegionSpec() {
  return Unwrap(chronicle::SummarySpec::GroupBy(
                    chronicle::CallRecordGenerator::RecordSchema(), {"region"},
                    {chronicle::AggSpec::Sum("minutes", "m"),
                     chronicle::AggSpec::Count("n"),
                     chronicle::AggSpec::Max("minutes", "hi")}),
                "by_region spec");
}

// The unsharded oracle of durable_shards: same views, nothing retained.
std::unique_ptr<ChronicleDatabase> OpenDurableOracle() {
  auto db = ChronicleDatabase::Open(DatabaseOptions());
  Unwrap(db->CreateChronicle("calls",
                             chronicle::CallRecordGenerator::RecordSchema(),
                             chronicle::RetentionPolicy::None()),
         "oracle chronicle");
  const auto scan = Unwrap(db->ScanChronicle("calls"), "oracle scan");
  Unwrap(db->CreateView("by_caller", scan, ByCallerSpec()), "oracle by_caller");
  Unwrap(db->CreateView("by_region", scan, ByRegionSpec()), "oracle by_region");
  return db;
}

}  // namespace

std::unique_ptr<shard::ShardedDatabase> OpenDurable(size_t shards,
                                                    const std::string& wal_dir,
                                                    const std::string& data_dir) {
  DatabaseOptions options;
  options.sharding.num_shards = shards;
  options.sharding.partition_key = "caller";
  options.sharding.wal_dir = wal_dir;
  options.storage.data_dir = data_dir;
  auto db = Unwrap(shard::ShardedDatabase::Open(std::move(options)),
                   "open sharded database");
  Unwrap(db->CreateChronicle("calls",
                             chronicle::CallRecordGenerator::RecordSchema(),
                             chronicle::RetentionPolicy::Tiered(kHotRows)),
         "create calls");
  auto scan = [](ChronicleDatabase& e) { return e.ScanChronicle("calls"); };
  Unwrap(db->CreateView("by_caller", scan, ByCallerSpec()), "create by_caller");
  Unwrap(db->CreateView("by_region", scan, ByRegionSpec()), "create by_region");
  return db;
}

std::unique_ptr<WireSystem> OpenWire(const std::string& workload, uint64_t seed,
                                     DatabaseOptions db, net::NetOptions net) {
  auto wire = std::make_unique<WireSystem>();
  wire->session = OpenSession(workload, seed, std::move(db), "NONE", true,
                              workload == "view_fanout");
  wire->service = std::make_unique<net::WireService>(wire->session.get(), net);
  Check(wire->service->Start(0), "start wire service");
  wire->append = std::make_unique<net::HttpClient>(wire->service->port());
  wire->sql = std::make_unique<net::HttpClient>(wire->service->port());
  auto open = Unwrap(wire->append->Post("/v1/session", ""), "open wire session");
  const std::string marker = "\"session\":\"";
  const size_t at = open.body.find(marker);
  if (open.status != 200 || at == std::string::npos) {
    Fail("open wire session: " + open.body);
  }
  const size_t start = at + marker.size();
  wire->headers = {{"X-Chronicle-Session",
                    open.body.substr(start, open.body.find('"', start) - start)}};
  return wire;
}

bool PostAppend(WireSystem* wire, const std::string& body, RunResult* out) {
  ++out->attempted;
  auto resp = wire->append->Post("/v1/append?chronicle=calls", body, wire->headers);
  if (resp.ok() && resp->status == 202) return true;
  ++out->failed;
  if (resp.ok() && resp->status == 429) ++out->rejected;
  return false;
}

namespace {

bool PostOk(net::HttpClient* client, const std::string& path,
            const std::string& body, const WireSystem& wire, RunResult* out) {
  ++out->attempted;
  auto resp = client->Post(path, body, wire.headers);
  if (resp.ok() && resp->status == 200) return true;
  ++out->failed;
  return false;
}

// Set-up is timed from opening the engine to the moment the first timed
// call could be made; input generation is excluded. Each repetition builds
// the whole system; only the last one is kept.
template <typename System, typename OpenFn>
std::unique_ptr<System> SetUp(int reps, RunResult* out, OpenFn open) {
  std::unique_ptr<System> system;
  for (int r = 0; r < std::max(reps, 1); ++r) {
    system.reset();
    const int64_t t0 = NowNs();
    system = open();
    out->setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return system;
}

// Appends ticks [begin, end) of `in` to an oracle in AppendMany batches.
void ReplayTicks(ChronicleDatabase* db, const Inputs& in, uint64_t begin,
                 uint64_t end) {
  constexpr uint64_t kBatch = 64;
  for (uint64_t i = begin; i < end; i += kBatch) {
    std::vector<std::vector<Tuple>> batch;
    for (uint64_t j = i; j < std::min(end, i + kBatch); ++j) {
      batch.push_back(in.Tick(j));
    }
    Check(db->AppendMany("calls", std::move(batch)).status(), "oracle append");
  }
}

RunResult RunWire(const Options& opt, const Inputs& in, double seconds,
                  int setup_reps, SpanRecorder* spans) {
  RunResult out;
  std::vector<std::string> bodies;
  bodies.reserve(in.ticks.size());
  for (const auto& tick : in.ticks) bodies.push_back(EncodeTsv(tick));
  std::vector<std::string> queries;
  for (size_t i = 0; i < 1024; ++i) {
    queries.push_back(PointQuerySql("wire_ingest", i, in.Key(i)));
  }

  auto wire = SetUp<WireSystem>(setup_reps, &out, [&] {
    return OpenWire("wire_ingest", opt.seed, DatabaseOptions(), net::NetOptions());
  });

  std::vector<uint64_t> accepted;  // tick indices, for the oracle
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t q = 0;
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    {
      ScopedSpan span(spans, "net.append", i);
      const int64_t t0 = NowNs();
      const bool ok = PostAppend(wire.get(), bodies[i % bodies.size()], &out);
      out.append.Add(NowNs() - t0);
      if (ok) accepted.push_back(i);
    }
    if (i % kQueryEvery == kQueryEvery - 1) {
      ScopedSpan span(spans, "net.sql", i);
      const int64_t t0 = NowNs();
      PostOk(wire->sql.get(), "/v1/sql", queries[q++ % queries.size()], *wire,
             &out);
      out.query.Add(NowNs() - t0);
    }
    if (i % kWireDrainEvery == kWireDrainEvery - 1) {
      ScopedSpan span(spans, "net.drain", i);
      PostOk(wire->append.get(), "/v1/drain", "", *wire, &out);
    }
  }
  {
    ScopedSpan span(spans, "net.drain", 0);
    PostOk(wire->append.get(), "/v1/drain", "", *wire, &out);
  }
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  out.rows = accepted.size() * in.rows_per_tick;
  out.peak_rss_mb = PeakRssMb();

  const std::vector<std::string> views = PersistentViews("wire_ingest");
  const Digest got = DigestDatabase(*wire->session->db(), views);
  wire.reset();
  auto oracle = OpenSession("wire_ingest", opt.seed, DatabaseOptions(), "NONE",
                            true, false);
  std::vector<std::vector<Tuple>> batch;
  for (uint64_t i : accepted) {
    batch.push_back(in.Tick(i));
    if (batch.size() == 64) {
      Check(oracle->db()->AppendMany("calls", std::move(batch)).status(),
            "oracle append");
      batch.clear();
    }
  }
  if (!batch.empty()) {
    Check(oracle->db()->AppendMany("calls", std::move(batch)).status(),
          "oracle append");
  }
  out.correct = SameDigest(got, DigestDatabase(*oracle->db(), views),
                           "wire_ingest", &out.notes);
  return out;
}

RunResult RunFanout(const Options& opt, const Inputs& in, double seconds,
                    int setup_reps, SpanRecorder* spans) {
  RunResult out;
  const std::vector<std::string> views = PersistentViews("view_fanout");
  std::vector<std::string> queries;
  for (size_t i = 0; i < 1024; ++i) {
    queries.push_back(PointQuerySql("view_fanout", i, in.Key(i)));
  }
  DatabaseOptions options;
  options.maintenance.num_threads = MaintenanceThreads("view_fanout");

  auto session = SetUp<cql::Session>(setup_reps, &out, [&] {
    return OpenSession("view_fanout", opt.seed, options, "NONE", true, true);
  });

  uint64_t ticks = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    std::vector<std::vector<Tuple>> batch{in.Tick(i)};
    {
      ScopedSpan span(spans, "cql.append_rows", i);
      ++out.attempted;
      const int64_t t0 = NowNs();
      const bool ok = session->AppendRows("calls", std::move(batch)).ok();
      out.append.Add(NowNs() - t0);
      if (!ok) ++out.failed;
    }
    ticks = i + 1;
    if (i % kQueryEvery == kQueryEvery - 1) {
      ScopedSpan span(spans, "cql.select", i);
      ++out.attempted;
      const int64_t t0 = NowNs();
      const bool ok = session->ExecuteSql(queries[(i / kQueryEvery) % queries.size()]).ok();
      out.query.Add(NowNs() - t0);
      if (!ok) ++out.failed;
    }
    if (i % kFanoutUpdateEvery == kFanoutUpdateEvery - 1) {
      ScopedSpan span(spans, "cql.update", i);
      ++out.attempted;
      if (!session->ExecuteSql(FanoutUpdateSql(opt.seed, i / kFanoutUpdateEvery)).ok()) {
        ++out.failed;
      }
    }
  }
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  out.rows = ticks * in.rows_per_tick;
  out.peak_rss_mb = PeakRssMb();

  const Digest got = DigestDatabase(*session->db(), views);
  session.reset();
  // Single-threaded oracle, relation updates at the same tick positions.
  auto oracle = OpenSession("view_fanout", opt.seed, DatabaseOptions(), "NONE",
                            true, true);
  for (uint64_t begin = 0; begin < ticks; begin += kFanoutUpdateEvery) {
    const uint64_t end = std::min(ticks, begin + kFanoutUpdateEvery);
    ReplayTicks(oracle->db(), in, begin, end);
    if (end - begin == kFanoutUpdateEvery) {
      Check(oracle->ExecuteSql(FanoutUpdateSql(opt.seed, begin / kFanoutUpdateEvery))
                .status(),
            "oracle update");
    }
  }
  out.correct = SameDigest(got, DigestDatabase(*oracle->db(), views),
                           "view_fanout", &out.notes);
  return out;
}

RunResult RunDurable(const Options& opt, const Inputs& in, double seconds,
                     int setup_reps, SpanRecorder* spans, bool recover) {
  RunResult out;
  const std::string wal_dir = opt.work_dir + "/durable-wal";
  const std::string data_dir = opt.work_dir + "/durable-data";
  auto db = SetUp<shard::ShardedDatabase>(setup_reps, &out, [&] {
    FreshDir(wal_dir);
    FreshDir(data_dir);
    auto sharded = OpenDurable(3, wal_dir, data_dir);
    Check(sharded->AttachWals(), "attach WALs");
    Check(sharded->StartIngest(1), "start ingest");
    return sharded;
  });

  uint64_t ticks = 0;
  uint64_t reads = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; NowNs() < deadline; ++i) {
    std::vector<Tuple> tuples = in.Tick(i);
    {
      ScopedSpan span(spans, "shard.enqueue", i);
      ++out.attempted;
      const int64_t t0 = NowNs();
      const bool ok = db->EnqueueAppend(0, "calls", std::move(tuples)).ok();
      out.append.Add(NowNs() - t0);
      if (!ok) ++out.failed;
    }
    ticks = i + 1;
    if (i % kDurableFlushEvery != kDurableFlushEvery - 1) continue;
    {
      ScopedSpan span(spans, "shard.flush", i);
      ++out.attempted;
      if (!db->Flush().ok()) ++out.failed;
    }
    for (int r = 0; r < kDurableReadsPerFlush; ++r, ++reads) {
      ++out.attempted;
      bool ok = false;
      if (reads % 2 == 0) {
        ScopedSpan span(spans, "shard.query_view", i);
        const int64_t t0 = NowNs();
        auto row = db->QueryView("by_caller", Tuple{Value(in.Key(reads))});
        out.query.Add(NowNs() - t0);
        // An account with no calls yet is an empty answer, not a failure.
        ok = row.ok() || row.status().code() == chronicle::StatusCode::kNotFound;
      } else {
        ScopedSpan span(spans, "shard.scan_view", i);
        const int64_t t0 = NowNs();
        ok = db->ScanView("by_region").ok();
        out.query.Add(NowNs() - t0);
      }
      if (!ok) ++out.failed;
    }
  }
  {
    ScopedSpan span(spans, "shard.stop_ingest", ticks);
    ++out.attempted;
    if (!db->StopIngest().ok()) ++out.failed;
  }
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  out.rows = ticks * in.rows_per_tick;
  out.peak_rss_mb = PeakRssMb();

  const Digest got = DigestSharded(*db, DurableViews());
  Check(db->CloseWals(), "close WALs");
  out.disk_bytes = static_cast<double>(DirBytes(wal_dir) + DirBytes(data_dir));
  db.reset();

  auto oracle = OpenDurableOracle();
  ReplayTicks(oracle.get(), in, 0, ticks);
  const Digest want = DigestDatabase(*oracle, DurableViews());
  out.correct = SameDigest(got, want, "durable_shards", &out.notes);

  if (recover) {
    // Restart: replay the per-shard WALs into fresh engines (and a fresh
    // store directory) and compare again.
    const std::string recovered_data = FreshDir(opt.work_dir + "/durable-data-recovered");
    auto recovered = OpenDurable(3, wal_dir, recovered_data);
    const int64_t r0 = NowNs();
    Check(recovered->RecoverFromWal().status(), "recover from WAL");
    out.notes.push_back("durable_shards: WAL recovery of " + std::to_string(out.rows) +
                        " rows took " +
                        std::to_string(static_cast<double>(NowNs() - r0) / 1e9) + " s");
    out.correct = SameDigest(DigestSharded(*recovered, DurableViews()), want,
                             "durable_shards recovered", &out.notes) &&
                  out.correct;
    recovered.reset();
    RemoveDir(recovered_data);
  }
  RemoveDir(wal_dir);
  RemoveDir(data_dir);
  return out;
}

}  // namespace

RunResult RunWorkload(const std::string& workload, const Options& options,
                      const Inputs& inputs, double seconds, int setup_reps,
                      SpanRecorder* spans, bool recover) {
  if (workload == "wire_ingest") {
    return RunWire(options, inputs, seconds, setup_reps, spans);
  }
  if (workload == "view_fanout") {
    return RunFanout(options, inputs, seconds, setup_reps, spans);
  }
  return RunDurable(options, inputs, seconds, setup_reps, spans, recover);
}

}  // namespace perfbench
