// Tests for cql::Session — the shared statement-execution layer the
// shell, the wire service, and these tests all drive. Coverage here is
// about the session contract itself: sharded/unsharded parity for the
// same script, the bulk-ingest entry point, durability plumbing, the
// stats-enricher chain, and the one JSON error shape.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cql/session.h"
#include "workload/call_records.h"

namespace chronicle {
namespace {

namespace fs = std::filesystem;

using cql::ErrorJson;
using cql::Session;

// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("chronicle_session_test_" + name + "_" +
               std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

constexpr char kDdl[] =
    "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
    "charge DOUBLE) RETAIN LAST 8;"
    "CREATE VIEW by_caller AS "
    "SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls GROUP BY caller;";

constexpr char kDml[] =
    "INSERT INTO calls VALUES (1, 'NJ', 10, 2.0), (2, 'NY', 3, 0.5) AT 1;"
    "INSERT INTO calls VALUES (1, 'NJ', 45, 9.0) AT 30;"
    "INSERT INTO calls VALUES (2, 'NY', 8, 2.0), (3, 'CA', 6, 1.0) AT 100;";

std::unique_ptr<Session> Open(size_t shards) {
  DatabaseOptions options;
  options.sharding.num_shards = shards;
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(*session);
}

std::vector<std::string> SortedRows(const cql::ExecResult& result) {
  std::vector<std::string> out;
  out.reserve(result.rows.size());
  for (const Tuple& row : result.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ErrorJsonTest, OneShapeForEverySurface) {
  EXPECT_EQ(ErrorJson(Status::NotFound("no such view: x")),
            "{\"error\":{\"code\":\"NotFound\","
            "\"message\":\"no such view: x\"}}");
  // Quotes and control characters in the message are escaped.
  const std::string json =
      ErrorJson(Status::InvalidArgument("bad \"cell\"\n"));
  EXPECT_NE(json.find("\\\"cell\\\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\n"), std::string::npos) << json;
}

TEST(CqlSessionTest, ShardedAndUnshardedRunTheSameScript) {
  std::unique_ptr<Session> plain = Open(1);
  std::unique_ptr<Session> sharded = Open(4);
  ASSERT_FALSE(plain->sharded());
  ASSERT_TRUE(sharded->sharded());
  EXPECT_EQ(sharded->num_shards(), 4u);

  for (Session* s : {plain.get(), sharded.get()}) {
    auto ddl = s->ExecuteScript(kDdl);
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    auto dml = s->ExecuteScript(kDml);
    ASSERT_TRUE(dml.ok()) << dml.status().ToString();
  }

  auto plain_rows = plain->ExecuteSql("SELECT * FROM by_caller;");
  auto sharded_rows = sharded->ExecuteSql("SELECT * FROM by_caller;");
  ASSERT_TRUE(plain_rows.ok()) << plain_rows.status().ToString();
  ASSERT_TRUE(sharded_rows.ok()) << sharded_rows.status().ToString();
  EXPECT_EQ(plain_rows->rows.size(), 3u);
  EXPECT_EQ(SortedRows(*plain_rows), SortedRows(*sharded_rows));
}

TEST(CqlSessionTest, ScriptStopsAtFirstErrorButKeepsPriorEffects) {
  std::unique_ptr<Session> session = Open(1);
  ASSERT_TRUE(session->ExecuteScript(kDdl).ok());

  auto result = session->ExecuteScript(
      "INSERT INTO calls VALUES (9, 'NJ', 1, 1.0) AT 1;"
      "SELECT * FROM no_such_view;"
      "INSERT INTO calls VALUES (10, 'NY', 1, 1.0) AT 2;");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);

  // The first insert committed; the one after the error never ran.
  auto rows = session->ExecuteSql("SELECT * FROM by_caller;");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], Value(9));
}

TEST(CqlSessionTest, AppendRowsIsTheBulkIngestPath) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    std::unique_ptr<Session> session = Open(shards);
    ASSERT_TRUE(session->ExecuteScript(kDdl).ok());

    CallRecordGenerator gen({.num_accounts = 20, .seed = 3});
    std::vector<std::vector<Tuple>> ticks;
    for (int t = 0; t < 4; ++t) ticks.push_back(gen.NextBatch(16));
    auto applied = session->AppendRows("calls", std::move(ticks));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(*applied, 64u);

    auto missing = session->AppendRows("no_such_chronicle", {{}});
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

    auto rows = session->ExecuteSql("SELECT * FROM by_caller;");
    ASSERT_TRUE(rows.ok());
    int64_t total = 0;
    for (const Tuple& row : rows->rows) total += row[2].int64();  // n
    EXPECT_EQ(total, 64);
  }
}

TEST(CqlSessionTest, ReconfigureMaintenanceBroadcastsToEveryEngine) {
  std::unique_ptr<Session> session = Open(4);
  MaintenanceOptions m = session->maintenance_options();
  m.min_views_per_task = 3;
  m.use_columnar_kernels = false;
  session->ReconfigureMaintenance(m);
  for (size_t k = 0; k < 4; ++k) {
    const MaintenanceOptions& got =
        session->sharded_db()->engine(k).maintenance_options();
    EXPECT_EQ(got.min_views_per_task, 3u);
    EXPECT_FALSE(got.use_columnar_kernels);
  }
}

TEST(CqlSessionTest, WalAttachCheckpointRecoverRoundTrip) {
  ScratchDir dir("wal_roundtrip");

  {
    std::unique_ptr<Session> session = Open(1);
    ASSERT_TRUE(session->ExecuteScript(kDdl).ok());

    // Checkpointing without a WAL is a precondition failure, not a crash.
    Status no_wal = session->WriteCheckpoint();
    EXPECT_EQ(no_wal.code(), StatusCode::kFailedPrecondition);

    Status attached = session->AttachWal(dir.path);
    ASSERT_TRUE(attached.ok()) << attached.ToString();
    ASSERT_NE(session->wal(), nullptr);

    ASSERT_TRUE(session->ExecuteScript(kDml).ok());
    Status ckpt = session->WriteCheckpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt.ToString();
    // More mutations after the checkpoint: recovery must replay the tail.
    ASSERT_TRUE(session
                    ->ExecuteSql(
                        "INSERT INTO calls VALUES (4, 'TX', 2, 0.2) AT 200;")
                    .ok());
    Status detached = session->DetachWal();
    ASSERT_TRUE(detached.ok()) << detached.ToString();
  }

  // Fresh session, same DDL, recover: checkpoint + log tail.
  std::unique_ptr<Session> recovered = Open(1);
  ASSERT_TRUE(recovered->ExecuteScript(kDdl).ok());
  auto report = recovered->Recover(dir.path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->checkpoint_restored);
  EXPECT_EQ(report->replay.records_applied, 1u);

  auto rows = recovered->ExecuteSql("SELECT * FROM by_caller;");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 4u);

  // Logging resumed: new mutations land in the recovered WAL.
  ASSERT_NE(recovered->wal(), nullptr);
  ASSERT_TRUE(
      recovered->ExecuteSql("INSERT INTO calls VALUES (5, 'WA', 1, 0.1) AT 300;")
          .ok());
}

TEST(CqlSessionTest, EnricherChainMultiplexesTheOneHook) {
  std::unique_ptr<Session> session = Open(1);
  ASSERT_TRUE(session->ExecuteScript(kDdl).ok());

  int first_runs = 0;
  int second_runs = 0;
  const size_t first =
      session->AddStatsEnricher([&](obs::StatsSnapshot*) { ++first_runs; });
  const size_t second =
      session->AddStatsEnricher([&](obs::StatsSnapshot*) { ++second_runs; });
  ASSERT_NE(first, second);

  (void)session->CollectStats();
  EXPECT_EQ(first_runs, 1);
  EXPECT_EQ(second_runs, 1);

  session->RemoveStatsEnricher(first);
  (void)session->CollectStats();
  EXPECT_EQ(first_runs, 1);
  EXPECT_EQ(second_runs, 2);
  session->RemoveStatsEnricher(second);
}

}  // namespace
}  // namespace chronicle
