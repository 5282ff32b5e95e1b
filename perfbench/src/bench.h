// Shared pieces of the repository benchmark (perfbench/README.md): seeded
// inputs, latency samples, the in-memory span recorder, canonical view
// digests for the correctness check, and the report printer.
//
// The harness links the chronicle libraries and calls only their public
// API; it never reaches into src/ internals.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/tuple.h"

namespace chronicle {
class ChronicleDatabase;
namespace shard {
class ShardedDatabase;
}
}  // namespace chronicle

namespace perfbench {

using chronicle::Status;
using chronicle::Tuple;

// Aborts the run (exit code 3, no result line): a set-up step failed, so
// there is nothing to measure.
[[noreturn]] void Fail(const std::string& what);
void Check(const Status& status, const std::string& what);
template <typename T>
T Unwrap(chronicle::Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).value();
}

int64_t NowNs();  // steady clock

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory for WALs, segments and span files (inside the
  // checkout); removed when the run ends.
  std::string work_dir;
  // Where span files are kept after the run.
  std::string trace_dir;
};

size_t NumCores();

// Seeded CDR input: Zipf 0.9 over 10k accounts, 8 regions. Ticks form a
// pool that runs cycle through (tick i is ticks[i % size]), so a run of any
// length replays the same sequence into the oracle.
struct Inputs {
  std::vector<std::vector<Tuple>> ticks;
  std::vector<int64_t> keys;  // callers for point reads, drawn Zipf-hot
  size_t rows_per_tick = 0;
  const std::vector<Tuple>& Tick(uint64_t i) const {
    return ticks[i % ticks.size()];
  }
  int64_t Key(uint64_t i) const { return keys[i % keys.size()]; }
};
Inputs MakeInputs(uint64_t seed, size_t pool_ticks, size_t rows_per_tick);

// One tick as a /v1/append TSV body.
std::string EncodeTsv(const std::vector<Tuple>& rows);

// Latency samples in nanoseconds.
struct Samples {
  std::vector<int64_t> ns;
  void Add(int64_t v) { ns.push_back(v); }
  size_t size() const { return ns.size(); }
  // Nearest-rank quantile in microseconds (0 when empty).
  double QuantileUs(double q) const;
  // Median of the samples in [begin_frac, end_frac) of recording order.
  double SliceMedianNs(double begin_frac, double end_frac) const;
};
double Median(std::vector<double> values);

// Spans recorded around timed public calls. Single-threaded: the harness
// records only on its client thread. A disabled recorder costs one branch.
struct Span {
  const char* name;  // "<layer>.<call>"
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into spans, -1 for a root
  uint64_t tick;   // shared by the spans of one tick
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int32_t Begin(const char* name, uint64_t tick);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }
  // Self time per layer (the name before the first '.'): each span's
  // duration minus the durations of its direct children, summed.
  std::map<std::string, double> SelfMsByLayer() const;
  Status WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t tick)
      : rec_(rec != nullptr && rec->enabled() ? rec : nullptr),
        id_(rec_ != nullptr ? rec_->Begin(name, tick) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

// Canonical, byte-comparable view state: view name -> sorted encoded rows.
// Covers persistent views (by name) plus every periodic and sliding view
// of the database.
using Digest = std::map<std::string, std::string>;
Digest DigestDatabase(const chronicle::ChronicleDatabase& db,
                      const std::vector<std::string>& views);
Digest DigestSharded(const chronicle::shard::ShardedDatabase& db,
                     const std::vector<std::string>& views);
// True when equal; otherwise appends one note per differing view.
bool SameDigest(const Digest& got, const Digest& want,
                const std::string& label, std::vector<std::string>* notes);

// Directory helpers (paths under Options::work_dir).
std::string FreshDir(const std::string& path);
uint64_t DirBytes(const std::string& path);
void RemoveDir(const std::string& path);

double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample counts and the like, printed beside the value
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // correctness findings, flags
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics.push_back({name, value, unit, note});
  }
};

// Human-readable lines, then the result object as the last stdout line.
void PrintReport(const Report& report);

// Metric names must be unique and match [A-Za-z0-9_.-]+ (self-test).
bool ValidMetricNames(const std::vector<Metric>& metrics, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
