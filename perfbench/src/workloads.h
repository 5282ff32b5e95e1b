// The three end-to-end workloads (perfbench/README.md) and the schema
// definitions the cost ladder reuses.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cql/session.h"
#include "net/http_client.h"
#include "net/wire_service.h"
#include "shard/sharded_db.h"

namespace perfbench {

extern const char* const kWorkloads[3];  // wire_ingest, view_fanout, durable_shards
bool KnownWorkload(const std::string& name);

size_t RowsPerTick(const std::string& workload);
size_t PoolTicks(const std::string& workload);
// Maintenance threads the workload runs with.
size_t MaintenanceThreads(const std::string& workload);

// CQL for the workload's chronicle, relation and views. `retain` is the
// RETAIN clause body ("NONE", "HOT 4096"); `persistent` / `periodic` pick
// the persistent views and the sliding/periodic views.
std::string WorkloadDdl(const std::string& workload, const std::string& retain,
                        bool persistent, bool periodic);
std::vector<std::string> PersistentViews(const std::string& workload);
// Loads the relations the DDL declares (view_fanout's 10k-row cust).
void LoadRelations(const std::string& workload, uint64_t seed,
                   chronicle::cql::Session* session);
// Opens an unsharded session with the workload's DDL applied.
std::unique_ptr<chronicle::cql::Session> OpenSession(
    const std::string& workload, uint64_t seed, chronicle::DatabaseOptions db,
    const std::string& retain, bool persistent, bool periodic);

// The workload's interleaved point read: a caller-keyed view, or on
// wire_ingest the by_region view.
std::string PointQuerySql(const std::string& workload, uint64_t i, int64_t key);

// durable_shards: by_caller (aligned with the partition key) and
// by_region (not aligned) over a tiered chronicle, built through the
// router API. The same DDL builds the unsharded oracle.
constexpr size_t kHotRows = 4096;
std::unique_ptr<chronicle::shard::ShardedDatabase> OpenDurable(
    size_t shards, const std::string& wal_dir, const std::string& data_dir);
const std::vector<std::string>& DurableViews();

// A wire service over a 1-shard session with the workload's DDL, and one
// open wire session held by two keep-alive connections (appends, SQL).
struct WireSystem {
  std::unique_ptr<chronicle::cql::Session> session;
  std::unique_ptr<chronicle::net::WireService> service;
  std::unique_ptr<chronicle::net::HttpClient> append;
  std::unique_ptr<chronicle::net::HttpClient> sql;
  std::vector<std::pair<std::string, std::string>> headers;
};
std::unique_ptr<WireSystem> OpenWire(const std::string& workload,
                                     uint64_t seed,
                                     chronicle::DatabaseOptions db,
                                     chronicle::net::NetOptions net);

// Outcome counters of one timed run.
struct RunResult {
  double elapsed_s = 0;  // first timed call to the end of the final drain
  uint64_t rows = 0;     // rows appended and maintained
  Samples append;
  Samples query;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  // 429s (also counted in failed)
  bool correct = true;
  std::vector<std::string> notes;
  std::vector<double> setup_times;  // seconds, one per set-up made
  double peak_rss_mb = 0;
  double disk_bytes = 0;  // WAL + segments at the end (durable_shards)
  double rows_per_s() const { return elapsed_s > 0 ? rows / elapsed_s : 0; }
};

// POSTs one /v1/append body; counts the attempt, and a non-202 (429
// included) as a failure. Returns whether the body was accepted.
bool PostAppend(WireSystem* wire, const std::string& body, RunResult* out);

// Runs one workload: `setup_reps` timed set-ups (the last one is kept),
// the closed loop for `seconds`, then the oracle check. With `recover`,
// durable_shards also replays its WALs into a fresh router and checks that.
RunResult RunWorkload(const std::string& workload, const Options& options,
                      const Inputs& inputs, double seconds, int setup_reps,
                      SpanRecorder* spans, bool recover);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
