#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "db/database.h"
#include "shard/sharded_db.h"
#include "workload/call_records.h"

namespace perfbench {

namespace fs = std::filesystem;

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(3);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t NumCores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

Inputs MakeInputs(uint64_t seed, size_t pool_ticks, size_t rows_per_tick) {
  chronicle::CallRecordOptions options;
  options.num_accounts = 10000;
  options.account_skew = 0.9;
  options.num_regions = 8;
  options.seed = seed;
  chronicle::CallRecordGenerator gen(options);
  Inputs in;
  in.rows_per_tick = rows_per_tick;
  in.ticks.reserve(pool_ticks);
  for (size_t i = 0; i < pool_ticks; ++i) {
    in.ticks.push_back(gen.NextBatch(rows_per_tick));
  }
  // Read keys follow the same skew as the writes, so most reads hit a
  // populated group.
  chronicle::ZipfSampler keys(options.num_accounts, options.account_skew,
                              seed ^ 0x9e3779b97f4a7c15ULL);
  in.keys.reserve(4096);
  for (size_t i = 0; i < 4096; ++i) {
    in.keys.push_back(static_cast<int64_t>(keys.Next()));
  }
  return in;
}

std::string EncodeTsv(const std::vector<Tuple>& rows) {
  std::string body;
  for (const Tuple& row : rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) body += '\t';
      const chronicle::Value& v = row[c];
      if (v.is_int64()) {
        body += std::to_string(v.int64());
      } else if (v.is_double()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.dbl());
        body += buf;
      } else if (v.is_string()) {
        body += v.str();
      } else {
        body += "\\N";
      }
    }
    body += '\n';
  }
  return body;
}

double Samples::QuantileUs(double q) const {
  if (ns.empty()) return 0;
  std::vector<int64_t> sorted = ns;
  const size_t rank = std::min(
      sorted.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank),
                   sorted.end());
  return static_cast<double>(sorted[rank]) / 1e3;
}

double Samples::SliceMedianNs(double begin_frac, double end_frac) const {
  const size_t n = ns.size();
  const size_t b = static_cast<size_t>(begin_frac * static_cast<double>(n));
  const size_t e = static_cast<size_t>(end_frac * static_cast<double>(n));
  std::vector<double> slice;
  for (size_t i = b; i < e && i < n; ++i) {
    slice.push_back(static_cast<double>(ns[i]));
  }
  return Median(std::move(slice));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int32_t SpanRecorder::Begin(const char* name, uint64_t tick) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back(), tick});
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanRecorder::SelfMsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* dot = std::strchr(s.name, '.');
    const std::string layer =
        dot == nullptr ? std::string(s.name) : std::string(s.name, dot);
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

Status SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"tick\":" << s.tick << "}\n";
  }
  return out.good() ? Status::OK() : Status::Internal("short write " + path);
}

namespace {

// Type-tagged exact encoding: doubles by bit pattern, so equal digests mean
// byte-identical values.
void EncodeValue(const chronicle::Value& v, std::string* out) {
  if (v.is_int64()) {
    *out += 'i';
    *out += std::to_string(v.int64());
  } else if (v.is_double()) {
    uint64_t bits = 0;
    const double d = v.dbl();
    std::memcpy(&bits, &d, sizeof(bits));
    char buf[24];
    std::snprintf(buf, sizeof(buf), "d%016" PRIx64, bits);
    *out += buf;
  } else if (v.is_string()) {
    *out += 's';
    *out += std::to_string(v.str().size());
    *out += ':';
    *out += v.str();
  } else {
    *out += 'n';
  }
  *out += '|';
}

std::string EncodeRow(const Tuple& row) {
  std::string out;
  for (size_t c = 0; c < row.size(); ++c) EncodeValue(row[c], &out);
  return out;
}

std::string Join(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) {
    out += r;
    out += '\n';
  }
  return out;
}

std::string DigestRows(const std::vector<Tuple>& rows) {
  std::vector<std::string> encoded;
  encoded.reserve(rows.size());
  for (const Tuple& row : rows) encoded.push_back(EncodeRow(row));
  return Join(std::move(encoded));
}

}  // namespace

Digest DigestDatabase(const chronicle::ChronicleDatabase& db,
                      const std::vector<std::string>& views) {
  Digest out;
  for (const std::string& name : views) {
    out[name] = DigestRows(Unwrap(db.ScanView(name), "scan " + name));
  }
  db.ForEachSlidingView([&](const chronicle::SlidingWindowView& view) {
    std::vector<std::string> rows;
    Check(view.ScanWindow([&](const Tuple& t) { rows.push_back(EncodeRow(t)); }),
          "scan sliding " + view.name());
    out[view.name()] = Join(std::move(rows));
  });
  db.ForEachPeriodicView([&](const chronicle::PeriodicViewSet& set) {
    std::vector<std::string> rows;
    set.VisitInstances([&](int64_t interval, const chronicle::PersistentView& v) {
      Check(v.Scan([&](const Tuple& t) {
              rows.push_back(std::to_string(interval) + "#" + EncodeRow(t));
            }),
            "scan periodic " + set.name());
    });
    out[set.name()] = Join(std::move(rows));
  });
  return out;
}

Digest DigestSharded(const chronicle::shard::ShardedDatabase& db,
                     const std::vector<std::string>& views) {
  Digest out;
  for (const std::string& name : views) {
    out[name] = DigestRows(Unwrap(db.ScanView(name), "scan " + name));
  }
  return out;
}

bool SameDigest(const Digest& got, const Digest& want, const std::string& label,
                std::vector<std::string>* notes) {
  bool same = got.size() == want.size();
  if (!same) {
    notes->push_back(label + ": view count " + std::to_string(got.size()) +
                     " != " + std::to_string(want.size()));
  }
  for (const auto& [name, bytes] : want) {
    auto it = got.find(name);
    if (it == got.end()) {
      notes->push_back(label + ": view " + name + " missing");
      same = false;
    } else if (it->second != bytes) {
      notes->push_back(label + ": view " + name + " differs from the oracle");
      same = false;
    }
  }
  return same;
}

std::string FreshDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path, ec);
  if (ec) Fail("cannot create " + path + ": " + ec.message());
  return path;
}

uint64_t DirBytes(const std::string& path) {
  uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(path, ec)) return 0;
  for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void RemoveDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ValidMetricNames(const std::vector<Metric>& metrics, std::string* why) {
  std::map<std::string, int> seen;
  for (const Metric& m : metrics) {
    if (m.name.empty() || m.name.size() > 64) {
      *why = "bad length: '" + m.name + "'";
      return false;
    }
    for (char c : m.name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
      if (!ok) {
        *why = "bad character in '" + m.name + "'";
        return false;
      }
    }
    if (++seen[m.name] > 1) {
      *why = "duplicate '" + m.name + "'";
      return false;
    }
  }
  return true;
}

void PrintReport(const Report& report) {
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric %-32s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
