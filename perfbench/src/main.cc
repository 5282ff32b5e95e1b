// perfbench: the repository benchmark harness (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//   perfbench --selftest --work-dir DIR
//   perfbench --list-metrics
//
// --trace 0 runs the workload's closed loop and prints the end-to-end
// metrics; --trace 1 prints the per-layer metrics of a traced run. The last
// stdout line is the result object. Exit 0 on a correct run, 1 when the
// correctness check fails, 2 on bad arguments, 3 when set-up fails, 4 when
// the build is not an optimized, unsanitized one.

#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.h"
#include "db/database.h"
#include "ladder.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {
      "ingest_rows_per_s", "append_p50_us", "query_p50_us", "maint_growth",
      "success_ratio",     "peak_rss_mb",   "setup_s",
  };
  return names;
}

// Why results from this build must not be trusted, or "" when they may.
std::string BuildDefect() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
  return "";
}

std::string FsType(const std::string& path) {
  struct statfs s;
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

void PrintProvenance(const Options& opt) {
  std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d nproc=%zu "
              "build=%s compiler=\"%s\" work_fs=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, NumCores(), PERFBENCH_BUILD_TYPE,
              __VERSION__, FsType(opt.work_dir).c_str());
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload {wire_ingest|view_fanout|durable_shards} "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "       perfbench --selftest --work-dir DIR\n"
               "       perfbench --list-metrics\n");
  std::exit(2);
}

void AddNotes(const RunResult& r, Report* report) {
  report->notes.insert(report->notes.end(), r.notes.begin(), r.notes.end());
  report->attempted += r.attempted;
  report->failed += r.failed;
  report->correct = report->correct && r.correct;
}

// The measured time is split into this many sub-runs, each on a freshly
// set-up system with fresh threads; every end-to-end metric is the median
// over sub-runs, so one sub-run that lands on a noisy stretch of the host
// (or an unlucky thread placement) does not move the result.
constexpr int kSubRuns = 5;
constexpr int kSetupsPerSubRun = 4;

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    out += ' ';
    out += std::to_string(v);
  }
  return out;
}

Report EndToEnd(const Options& opt, const Inputs& in) {
  Report report;
  std::map<std::string, std::vector<double>> per_run;  // metric -> sub-run values
  std::vector<double> setups;
  uint64_t rows = 0, appends = 0, queries = 0, rejected = 0;
  double disk_bytes = 0;
  double peak_rss_mb = 0;
  for (int k = 0; k < kSubRuns; ++k) {
    // WAL recovery replays at a fraction of the ingest rate; checking it on
    // the last sub-run keeps a durable_shards run inside its time budget.
    const RunResult r = RunWorkload(opt.workload, opt, in, opt.seconds / kSubRuns,
                                    kSetupsPerSubRun, nullptr, k == kSubRuns - 1);
    AddNotes(r, &report);
    rows += r.rows;
    appends += r.append.size();
    queries += r.query.size();
    rejected += r.rejected;
    disk_bytes += r.disk_bytes;
    setups.insert(setups.end(), r.setup_times.begin(), r.setup_times.end());
    per_run["ingest_rows_per_s"].push_back(r.rows_per_s());
    per_run["append_p50_us"].push_back(r.append.QuantileUs(0.5));
    per_run["append_p90_us"].push_back(r.append.QuantileUs(0.90));
    per_run["append_p99_us"].push_back(r.append.QuantileUs(0.99));
    per_run["query_p50_us"].push_back(r.query.QuantileUs(0.5));
    per_run["query_p90_us"].push_back(r.query.QuantileUs(0.90));
    per_run["query_p99_us"].push_back(r.query.QuantileUs(0.99));
    const double first = r.append.SliceMedianNs(0.0, 0.2);
    per_run["maint_growth"].push_back(first > 0 ? r.append.SliceMedianNs(0.8, 1.0) / first : 0);
    // Later sub-runs would also see the earlier oracles' peak.
    if (k == 0) peak_rss_mb = r.peak_rss_mb;
  }
  for (const auto& [name, values] : per_run) {
    report.notes.push_back("sub-runs " + name + ":" + Join(values));
  }
  auto add = [&](const std::string& name, const std::string& unit, const std::string& note) {
    report.Add(name, Median(per_run[name]), unit, note);
  };
  const std::string subs = " per sub-run, median of " + std::to_string(kSubRuns);
  const std::string na = "n=" + std::to_string(appends) + subs;
  const std::string nq = "n=" + std::to_string(queries) + subs;
  add("ingest_rows_per_s", "1/s", std::to_string(rows) + " rows to the final drain" + subs);
  add("append_p50_us", "us", na);
  add("query_p50_us", "us", nq);
  // Tails swing by up to 2-5x with host contention from run to run, so they
  // are printed but not part of the gated metric set.
  for (const char* tail : {"append_p90_us", "append_p99_us", "query_p90_us", "query_p99_us"}) {
    report.notes.push_back(std::string(tail) + "=" + std::to_string(Median(per_run[tail])) +
                           " us (" + (tail[0] == 'a' ? na : nq) + ")");
  }
  add("maint_growth", "ratio", "median append, last fifth / first fifth" + subs);
  const double error_ratio = static_cast<double>(report.failed) /
                             static_cast<double>(std::max<uint64_t>(report.attempted, 1));
  report.Add("success_ratio", 1.0 - error_ratio, "ratio",
             "error_ratio=" + std::to_string(error_ratio) + " (" +
                 std::to_string(report.failed) + "/" + std::to_string(report.attempted) +
                 ", 429s=" + std::to_string(rejected) + ")");
  report.Add("peak_rss_mb", peak_rss_mb, "MB", "first sub-run, before its oracle");
  report.Add("setup_s", Median(setups), "s",
             "median of " + std::to_string(setups.size()) + " set-ups");
  if (opt.workload == "durable_shards") {
    report.notes.push_back("disk_bytes_per_row=" +
                           std::to_string(rows == 0 ? 0 : disk_bytes / static_cast<double>(rows)) +
                           " B (WAL + segments at the end of each sub-run, fsync=batch)");
  }
  return report;
}

Report Traced(const Options& opt, const Inputs& in) {
  Report report;
  // A short untraced and traced pass of the workload loop give the
  // benchmark's own tracing overhead; the ladder gets the rest.
  const double loop_s = opt.seconds * 0.15;
  const RunResult plain = RunWorkload(opt.workload, opt, in, loop_s, 1, nullptr, false);
  SpanRecorder spans(true);
  const RunResult traced = RunWorkload(opt.workload, opt, in, loop_s, 1, &spans, true);
  AddNotes(plain, &report);
  AddNotes(traced, &report);
  RunLadder(opt.workload, opt, in, opt.seconds * 0.7, &spans, &report);
  report.Add("obs.bench_trace_overhead",
             plain.rows_per_s() > 0 ? 1.0 - traced.rows_per_s() / plain.rows_per_s() : 0,
             "ratio", "1 - traced/untraced ingest_rows_per_s");
  // Report in the declared order.
  std::vector<Metric> ordered;
  for (const std::string& name : PerLayerMetricNames()) {
    for (const Metric& m : report.metrics) {
      if (m.name == name) ordered.push_back(m);
    }
  }
  report.metrics = std::move(ordered);

  const std::string path =
      opt.trace_dir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".jsonl";
  Check(spans.WriteJsonl(path), "write spans");
  report.notes.push_back("spans: " + std::to_string(spans.spans().size()) + " written to " +
                         path);
  for (const auto& [layer, ms] : spans.SelfMsByLayer()) {
    report.notes.push_back("self time " + layer + ": " + std::to_string(ms) + " ms");
  }
  return report;
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("selftest: %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };

  // 1. The generator is deterministic for a fixed seed.
  {
    const Inputs a = MakeInputs(7, 32, 64);
    const Inputs b = MakeInputs(7, 32, 64);
    const Inputs c = MakeInputs(8, 32, 64);
    std::string ta, tb, tc;
    for (size_t i = 0; i < a.ticks.size(); ++i) {
      ta += EncodeTsv(a.ticks[i]);
      tb += EncodeTsv(b.ticks[i]);
      tc += EncodeTsv(c.ticks[i]);
    }
    expect(ta == tb && a.keys == b.keys, "same seed gives the same ticks and keys");
    expect(ta != tc, "another seed gives other ticks");
  }

  // 2. Metric names are unique and well formed.
  {
    std::vector<Metric> all;
    for (const auto& n : EndToEndMetricNames()) all.push_back({n, 0, "", ""});
    for (const auto& n : PerLayerMetricNames()) all.push_back({n, 0, "", ""});
    std::string why;
    expect(ValidMetricNames(all, &why), "metric names unique and [A-Za-z0-9_.-]+ " + why);
  }

  // 3. The correctness check is not vacuous: corrupting one view's state
  // behind the oracle's back must be caught.
  {
    const Inputs in = MakeInputs(11, 16, 32);
    auto a = OpenSession("view_fanout", 11, chronicle::DatabaseOptions(), "NONE", true, true);
    auto b = OpenSession("view_fanout", 11, chronicle::DatabaseOptions(), "NONE", true, true);
    for (uint64_t i = 0; i < 16; ++i) {
      Check(a->AppendRows("calls", {in.Tick(i)}).status(), "append a");
      Check(b->AppendRows("calls", {in.Tick(i)}).status(), "append b");
    }
    const auto views = PersistentViews("view_fanout");
    std::vector<std::string> notes;
    expect(SameDigest(DigestDatabase(*a->db(), views), DigestDatabase(*b->db(), views),
                      "clean", &notes),
           "identical runs compare equal");
    // One extra tick fed to a single view's maintenance path only.
    chronicle::ChronicleDatabase* db = b->db();
    const auto calls = Unwrap(db->group().FindChronicle("calls"), "find calls");
    const auto event = Unwrap(db->group().Append(calls, {in.Tick(0)[0]}), "mint event");
    Check(db->view_manager().ProcessAppend(event).status(), "corrupt");
    notes.clear();
    expect(!SameDigest(DigestDatabase(*a->db(), views), DigestDatabase(*db, views),
                       "corrupted", &notes) &&
               !notes.empty(),
           "a corrupted view fails the check");
  }

  // 4. A forced 429 is counted as a failure in error_ratio.
  {
    chronicle::net::NetOptions net;
    net.session_queue_rows = 512;  // two 256-row ticks
    auto wire = OpenWire("wire_ingest", 3, chronicle::DatabaseOptions(), net);
    wire->service->SetIngestPaused(true);
    const Inputs in = MakeInputs(3, 4, 256);
    RunResult counts;
    for (uint64_t i = 0; i < 4; ++i) PostAppend(wire.get(), EncodeTsv(in.Tick(i)), &counts);
    wire->service->SetIngestPaused(false);
    Check(wire->service->Drain(), "drain");
    expect(counts.attempted == 4 && counts.failed == 2 && counts.rejected == 2,
           "forced 429s count as failed (2 of 4)");
  }

  std::printf("selftest: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  bool selftest = false;
  bool list = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--list-metrics") {
      list = true;
    } else {
      Usage();
    }
  }
  if (list) {
    for (const auto& n : EndToEndMetricNames()) std::printf("end_to_end %s\n", n.c_str());
    for (const auto& n : PerLayerMetricNames()) std::printf("per_layer %s\n", n.c_str());
    return 0;
  }
  const std::string defect = BuildDefect();
  if (!defect.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", defect.c_str());
    return 4;
  }
  if (opt.work_dir.empty()) Usage();
  FreshDir(opt.work_dir);
  if (opt.trace_dir.empty()) opt.trace_dir = opt.work_dir;
  if (selftest) {
    const int rc = SelfTest();
    RemoveDir(opt.work_dir);
    return rc;
  }
  if (!have_workload || !KnownWorkload(opt.workload) || opt.seconds <= 0) Usage();

  PrintProvenance(opt);
  const Inputs in = MakeInputs(opt.seed, PoolTicks(opt.workload), RowsPerTick(opt.workload));
  Report report = opt.trace ? Traced(opt, in) : EndToEnd(opt, in);
  RemoveDir(opt.work_dir);

  std::string why;
  if (!ValidMetricNames(report.metrics, &why)) Fail("metric names: " + why);
  const auto& want = opt.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  if (report.metrics.size() != want.size()) Fail("metric set incomplete");
  report.attempted = std::max<uint64_t>(report.attempted, 1);
  PrintReport(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
