// Tests for end-to-end request tracing (src/obs/request_trace.h).
//
// Unit half: the traceparent codec, the sampling decision, the seqlock
// span ring, RequestScope installation, and slow-request dispatch.
//
// Integration half (the acceptance property from the experiment plan):
// concurrent traced /v1/append and /v1/sql against a REAL 4-shard
// WireService over a loopback socket. Sampled requests must yield one
// complete span tree in /requests.json — every stage span parent-linked
// under the request root, queue_wait tagged with the ingest worker and
// maintain tagged with the shard that ran it — and unsampled requests
// must record zero spans. Run under TSan in CI: the emitters are the
// HTTP threads, the ingest worker, and the shard engines concurrently.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cql/session.h"
#include <gtest/gtest.h>
#include "net/http_client.h"
#include "net/wire_service.h"
#include "obs/request_trace.h"

namespace chronicle {
namespace {

using cql::Session;
using net::HttpClient;
using net::NetOptions;
using net::WireService;
using obs::ReqStage;
using obs::RequestScope;
using obs::RequestSpan;
using obs::RequestTracer;
using obs::TraceContext;

// ---------------------------------------------------------------------------
// traceparent codec

TEST(Traceparent, RoundTrip) {
  TraceContext ctx;
  ASSERT_TRUE(obs::ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &ctx));
  EXPECT_EQ(ctx.trace_hi, 0x4bf92f3577b34da6ull);
  EXPECT_EQ(ctx.trace_lo, 0xa3ce929d0e0e4736ull);
  EXPECT_EQ(ctx.parent_span, 0x00f067aa0ba902b7ull);
  EXPECT_TRUE(ctx.sampled);
  EXPECT_TRUE(ctx.valid());

  EXPECT_EQ(obs::FormatTraceparent(ctx, 0x00f067aa0ba902b7ull),
            "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01");
  ctx.sampled = false;
  EXPECT_EQ(obs::FormatTraceparent(ctx, 1),
            "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000001-00");
}

TEST(Traceparent, RejectsMalformed) {
  TraceContext ctx;
  // Wrong length / structure.
  EXPECT_FALSE(obs::ParseTraceparent("", &ctx));
  EXPECT_FALSE(obs::ParseTraceparent("00-abc-def-01", &ctx));
  // Unsupported version.
  EXPECT_FALSE(obs::ParseTraceparent(
      "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &ctx));
  // Zero trace id / zero span id.
  EXPECT_FALSE(obs::ParseTraceparent(
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01", &ctx));
  EXPECT_FALSE(obs::ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", &ctx));
  // Upper-case hex is invalid per W3C trace-context.
  EXPECT_FALSE(obs::ParseTraceparent(
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", &ctx));
  // Dash in the wrong place.
  EXPECT_FALSE(obs::ParseTraceparent(
      "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &ctx));
  // An unsampled but otherwise valid header parses with sampled=false.
  ASSERT_TRUE(obs::ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", &ctx));
  EXPECT_FALSE(ctx.sampled);
}

// ---------------------------------------------------------------------------
// sampling

TEST(RequestTracerTest, SampleRateZeroNeverSamples) {
  RequestTracer tracer(64, 0.0, 0);
  for (int i = 0; i < 256; ++i) {
    TraceContext ctx = tracer.Mint();
    EXPECT_TRUE(ctx.valid());
    EXPECT_FALSE(ctx.sampled);
  }
}

TEST(RequestTracerTest, SampleRateOneAlwaysSamples) {
  RequestTracer tracer(64, 1.0, 0);
  for (int i = 0; i < 256; ++i) {
    EXPECT_TRUE(tracer.Mint().sampled);
  }
}

TEST(RequestTracerTest, FractionalRateSamplesApproximately) {
  RequestTracer tracer(64, 0.25, 0);
  int sampled = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (tracer.Mint().sampled) ++sampled;
  }
  EXPECT_GT(sampled, kTrials / 8);      // well above 0
  EXPECT_LT(sampled, kTrials * 3 / 8);  // well below half
}

TEST(RequestTracerTest, DisabledRingForcesUnsampled) {
  RequestTracer tracer(0, 1.0, 0);
  EXPECT_FALSE(tracer.enabled());
  EXPECT_FALSE(tracer.Mint().sampled);
  EXPECT_EQ(tracer.Snapshot().size(), 0u);
}

// ---------------------------------------------------------------------------
// the span ring

TEST(RequestTracerTest, EmitSnapshotRoundTrip) {
  RequestTracer tracer(64, 1.0, 0);
  TraceContext ctx = tracer.Mint();
  const uint64_t root = tracer.NewSpanId();
  tracer.Emit(ctx, root, 0, ReqStage::kRequest, -1, 0, 100, 50, 202);
  tracer.Emit(ctx, tracer.NewSpanId(), root, ReqStage::kMaintain, 3, 1, 110,
              20, 7);

  std::vector<RequestSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].span_id, root);
  EXPECT_EQ(spans[0].stage, ReqStage::kRequest);
  EXPECT_EQ(spans[0].detail, 202u);
  EXPECT_EQ(spans[1].parent_span, root);
  EXPECT_EQ(spans[1].stage, ReqStage::kMaintain);
  EXPECT_EQ(spans[1].shard, 3);
  EXPECT_EQ(spans[1].worker, 1);
  EXPECT_EQ(spans[1].start_ns, 110);
  EXPECT_EQ(spans[1].duration_ns, 20);
}

TEST(RequestTracerTest, RingRetainsNewestAtCapacity) {
  RequestTracer tracer(8, 1.0, 0);
  TraceContext ctx = tracer.Mint();
  for (int i = 0; i < 100; ++i) {
    tracer.Emit(ctx, tracer.NewSpanId(), 1, ReqStage::kAppend, -1, 0, i, 1,
                static_cast<uint64_t>(i));
  }
  std::vector<RequestSpan> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), tracer.capacity());
  // Oldest first, and only the newest `capacity` survive.
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].detail, 100 - tracer.capacity() + i);
  }
  EXPECT_EQ(tracer.total_emitted(), 100u);
}

TEST(RequestTracerTest, ConcurrentEmittersAreTornFree) {
  // A 16-slot ring wraps constantly, so writers keep meeting on one slot:
  // the seqlock claim must let only one of them in at a time.
  RequestTracer tracer(16, 1.0, 0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const RequestSpan& s : tracer.Snapshot()) {
        // Writers always store span_id == detail; a torn read would break
        // the invariant (and TSan would flag the race).
        ASSERT_EQ(s.span_id, s.detail);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer, t] {
      TraceContext ctx = tracer.Mint();
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t id =
            static_cast<uint64_t>(t) * kPerThread + static_cast<uint64_t>(i) +
            1;
        tracer.Emit(ctx, id, 1, ReqStage::kAppend, t, static_cast<uint16_t>(t),
                    i, 1, id);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(tracer.total_emitted(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// RequestScope

TEST(RequestScopeTest, InstallsOnlyForSampledContexts) {
  RequestTracer tracer(64, 1.0, 0);
  EXPECT_EQ(RequestScope::Current(), nullptr);

  TraceContext unsampled = tracer.Mint();
  unsampled.sampled = false;
  {
    RequestScope scope(&tracer, unsampled, 1, 0);
    EXPECT_EQ(RequestScope::Current(), nullptr);
  }

  TraceContext sampled = tracer.Mint();
  ASSERT_TRUE(sampled.sampled);
  {
    RequestScope outer(&tracer, sampled, 42, 1);
    ASSERT_NE(RequestScope::Current(), nullptr);
    EXPECT_EQ(RequestScope::Current()->root_span, 42u);
    EXPECT_EQ(RequestScope::Current()->worker, 1);
    {
      RequestScope inner(&tracer, sampled, 43, 2);
      EXPECT_EQ(RequestScope::Current()->root_span, 43u);
    }
    EXPECT_EQ(RequestScope::Current()->root_span, 42u);
  }
  EXPECT_EQ(RequestScope::Current(), nullptr);
}

// ---------------------------------------------------------------------------
// slow-request dispatch

TEST(RequestTracerTest, SlowCaptureFiresOnlyOverBudget) {
  RequestTracer tracer(64, 1.0, 1000);
  uint64_t seen_hi = 0, seen_lo = 0;
  int64_t seen_ns = 0;
  int calls = 0;
  tracer.set_slow_capture([&](uint64_t hi, uint64_t lo, int64_t total) {
    seen_hi = hi;
    seen_lo = lo;
    seen_ns = total;
    ++calls;
  });

  TraceContext ctx = tracer.Mint();
  tracer.MaybeCaptureSlow(ctx, 999);  // under budget
  EXPECT_EQ(calls, 0);
  TraceContext unsampled = ctx;
  unsampled.sampled = false;
  tracer.MaybeCaptureSlow(unsampled, 5000);  // unsampled: no tree to dump
  EXPECT_EQ(calls, 0);
  tracer.MaybeCaptureSlow(ctx, 5000);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_hi, ctx.trace_hi);
  EXPECT_EQ(seen_lo, ctx.trace_lo);
  EXPECT_EQ(seen_ns, 5000);
  EXPECT_EQ(tracer.slow_captures(), 1u);
}

// ---------------------------------------------------------------------------
// the wire: concurrent traced requests against a 4-shard service

constexpr char kDdl[] =
    "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
    "charge DOUBLE) RETAIN LAST 8;"
    "CREATE VIEW by_caller AS "
    "SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls GROUP BY caller;";

// A client traceparent with a recognizable per-request trace id; `flags`
// "01" forces sampling, "00" forces the zero-span path.
std::string ClientTraceparent(int thread, int request, const char* flags) {
  char buf[64];
  snprintf(buf, sizeof(buf), "00-%016x%016x-00f067aa0ba902b7-%s",
           thread + 1, request + 1, flags);
  return buf;
}

std::string ClientTraceId(int thread, int request) {
  char buf[40];
  snprintf(buf, sizeof(buf), "%016x%016x", thread + 1, request + 1);
  return buf;
}

// Extracts the {"trace_id":"<id>",...} object from /requests.json ("" when
// absent). Balanced-brace-free: the object ends at the first "]}" (the
// close of its spans array).
std::string ExtractTrace(const std::string& body, const std::string& id) {
  const size_t at = body.find("{\"trace_id\":\"" + id + "\"");
  if (at == std::string::npos) return "";
  const size_t end = body.find("]}", at);
  return body.substr(at, end == std::string::npos ? std::string::npos
                                                  : end + 2 - at);
}

size_t CountStage(const std::string& trace, const std::string& stage) {
  const std::string needle = "\"stage\":\"" + stage + "\"";
  size_t n = 0;
  for (size_t at = trace.find(needle); at != std::string::npos;
       at = trace.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

class WireTraceTest : public ::testing::Test {
 protected:
  void Start(size_t shards, double sample_rate, size_t capacity = 8192) {
    DatabaseOptions options;
    options.sharding.num_shards = shards;
    options.set_request_trace(capacity, sample_rate);
    auto session = Session::Open(std::move(options));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    session_ = std::move(*session);
    auto ddl = session_->ExecuteScript(kDdl);
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    service_ = std::make_unique<WireService>(session_.get(), NetOptions{});
    ASSERT_TRUE(service_->Start(0).ok());
  }

  void TearDown() override {
    if (service_ != nullptr) service_->Stop();
  }

  std::string OpenWireSession(HttpClient* client) {
    auto resp = client->Post("/v1/session", "");
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200);
    const std::string marker = "\"session\":\"";
    const size_t at = resp->body.find(marker);
    EXPECT_NE(at, std::string::npos) << resp->body;
    const size_t start = at + marker.size();
    return resp->body.substr(start, resp->body.find('"', start) - start);
  }

  std::unique_ptr<Session> session_;
  std::unique_ptr<WireService> service_;
};

TEST_F(WireTraceTest, ConcurrentTracedRequestsYieldCompleteTrees) {
  Start(/*shards=*/4, /*sample_rate=*/0.0);
  HttpClient setup(service_->port());
  const std::string sid = OpenWireSession(&setup);

  // Two append threads and two SQL threads; even requests forced-sampled
  // via the client flag, odd requests explicitly unsampled. Sample rate 0
  // means the CLIENT decision is the only source of sampling.
  constexpr int kAppendThreads = 2;
  constexpr int kSqlThreads = 2;
  constexpr int kPerThread = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppendThreads; ++t) {
    threads.emplace_back([this, t, sid, &failures] {
      HttpClient client(service_->port());
      for (int i = 0; i < kPerThread; ++i) {
        // Eight distinct caller keys so the router fans across shards.
        std::string body;
        for (int r = 0; r < 8; ++r) {
          body += std::to_string(t * 8 + r) + "\tus\t" + std::to_string(i) +
                  "\t1.5\n";
        }
        auto resp = client.Post(
            "/v1/append?chronicle=calls", body,
            {{"X-Chronicle-Session", sid},
             {"traceparent", ClientTraceparent(t, i, i % 2 == 0 ? "01"
                                                                : "00")}});
        if (!resp.ok() || resp->status != 202) ++failures;
      }
    });
  }
  for (int t = 0; t < kSqlThreads; ++t) {
    threads.emplace_back([this, t, sid, &failures] {
      HttpClient client(service_->port());
      for (int i = 0; i < kPerThread; ++i) {
        auto resp = client.Post(
            "/v1/sql", "SELECT * FROM by_caller;",
            {{"X-Chronicle-Session", sid},
             {"traceparent", ClientTraceparent(kAppendThreads + t, i,
                                               i % 2 == 0 ? "01" : "00")}});
        if (!resp.ok() || resp->status != 200) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  auto drained = setup.Post("/v1/drain", "", {{"X-Chronicle-Session", sid}});
  ASSERT_TRUE(drained.ok());
  ASSERT_EQ(drained->status, 200) << drained->body;

  auto reqs = setup.Get("/requests.json");
  ASSERT_TRUE(reqs.ok());
  ASSERT_EQ(reqs->status, 200);
  const std::string& body = reqs->body;

  // Every sampled append trace: one complete tree with all seven stages,
  // queue_wait emitted by the ingest worker (worker 1) and maintain tagged
  // with a real shard id, all parent-linked under the request root.
  for (int t = 0; t < kAppendThreads; ++t) {
    for (int i = 0; i < kPerThread; i += 2) {
      const std::string trace = ExtractTrace(body, ClientTraceId(t, i));
      ASSERT_FALSE(trace.empty())
          << "sampled append trace " << ClientTraceId(t, i)
          << " missing from /requests.json: " << body;
      EXPECT_EQ(CountStage(trace, "request"), 1u) << trace;
      EXPECT_GE(CountStage(trace, "parse"), 1u) << trace;
      EXPECT_GE(CountStage(trace, "queue_wait"), 1u) << trace;
      EXPECT_GE(CountStage(trace, "append"), 1u) << trace;
      EXPECT_GE(CountStage(trace, "wal_commit"), 1u) << trace;
      EXPECT_GE(CountStage(trace, "maintain"), 1u) << trace;
      EXPECT_GE(CountStage(trace, "merge"), 1u) << trace;
      EXPECT_GE(CountStage(trace, "respond"), 1u) << trace;

      // Root id, then parent linkage: every non-root span names the root.
      const std::string root_marker = "\"root_span_id\":\"";
      const size_t root_at = trace.find(root_marker);
      ASSERT_NE(root_at, std::string::npos);
      const std::string root =
          trace.substr(root_at + root_marker.size(), 16);
      EXPECT_NE(root, "0000000000000000") << trace;
      const std::string parent_marker = "\"parent_span_id\":\"";
      size_t linked = 0;
      for (size_t at = trace.find(parent_marker); at != std::string::npos;
           at = trace.find(parent_marker, at + parent_marker.size())) {
        const std::string parent =
            trace.substr(at + parent_marker.size(), 16);
        // The root's own parent is the CLIENT's span id; everything else
        // must hang off the root.
        if (parent == "00f067aa0ba902b7") continue;
        EXPECT_EQ(parent, root) << trace;
        ++linked;
      }
      EXPECT_GE(linked, 7u) << trace;

      // queue_wait came from the ingest worker; maintain from a shard.
      EXPECT_NE(trace.find("\"stage\":\"queue_wait\",\"shard\":-1,"
                           "\"worker\":1"),
                std::string::npos)
          << trace;
      bool sharded_maintain = false;
      const std::string maintain_marker = "\"stage\":\"maintain\",\"shard\":";
      for (size_t at = trace.find(maintain_marker); at != std::string::npos;
           at = trace.find(maintain_marker, at + maintain_marker.size())) {
        if (trace[at + maintain_marker.size()] != '-') sharded_maintain = true;
      }
      EXPECT_TRUE(sharded_maintain) << trace;
    }
  }

  // Sampled SQL traces: parse + request present.
  for (int t = 0; t < kSqlThreads; ++t) {
    const std::string trace =
        ExtractTrace(body, ClientTraceId(kAppendThreads + t, 0));
    ASSERT_FALSE(trace.empty()) << body;
    EXPECT_EQ(CountStage(trace, "request"), 1u) << trace;
    EXPECT_GE(CountStage(trace, "parse"), 1u) << trace;
    EXPECT_GE(CountStage(trace, "respond"), 1u) << trace;
  }

  // Unsampled requests (flag 00) recorded ZERO spans.
  for (int t = 0; t < kAppendThreads + kSqlThreads; ++t) {
    for (int i = 1; i < kPerThread; i += 2) {
      EXPECT_EQ(ExtractTrace(body, ClientTraceId(t, i)), "")
          << "unsampled trace leaked spans: " << ClientTraceId(t, i);
    }
  }

  // The merged per-shard trace endpoint and the history endpoint answer.
  auto trace_json = setup.Get("/trace.json");
  ASSERT_TRUE(trace_json.ok());
  EXPECT_EQ(trace_json->status, 200);
  auto history = setup.Get("/history.json");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->status, 200);
  EXPECT_NE(history->body.find("\"samples\""), std::string::npos);
}

TEST_F(WireTraceTest, TraceparentEchoedOnEveryResponse) {
  Start(/*shards=*/1, /*sample_rate=*/0.0);
  HttpClient client(service_->port());
  const std::string sid = OpenWireSession(&client);

  // No client header: the service mints a context and echoes it.
  auto resp = client.Post("/v1/sql", "SELECT * FROM by_caller;",
                          {{"X-Chronicle-Session", sid}});
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, 200);
  const std::string* minted = resp->FindHeader("traceparent");
  ASSERT_NE(minted, nullptr);
  obs::TraceContext ctx;
  ASSERT_TRUE(obs::ParseTraceparent(*minted, &ctx)) << *minted;
  EXPECT_FALSE(ctx.sampled);  // rate 0, no client flag

  // Client header: the trace id comes back verbatim.
  auto forced = client.Post(
      "/v1/sql", "SELECT * FROM by_caller;",
      {{"X-Chronicle-Session", sid},
       {"traceparent",
        "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}});
  ASSERT_TRUE(forced.ok());
  const std::string* echoed = forced->FindHeader("traceparent");
  ASSERT_NE(echoed, nullptr);
  EXPECT_EQ(echoed->substr(0, 36),
            "00-4bf92f3577b34da6a3ce929d0e0e4736-");
  EXPECT_EQ(echoed->substr(53), "01");

  // The sampled request's tree shows up with the client id.
  auto reqs = client.Get("/requests.json");
  ASSERT_TRUE(reqs.ok());
  EXPECT_NE(reqs->body.find("4bf92f3577b34da6a3ce929d0e0e4736"),
            std::string::npos)
      << reqs->body;
}

TEST_F(WireTraceTest, TracerDisabledStillServesPlaceholders) {
  DatabaseOptions options;
  options.set_request_trace(0, 0.0);
  auto session = Session::Open(std::move(options));
  ASSERT_TRUE(session.ok());
  session_ = std::move(*session);
  ASSERT_TRUE(session_->ExecuteScript(kDdl).ok());
  service_ = std::make_unique<WireService>(session_.get(), NetOptions{});
  ASSERT_TRUE(service_->Start(0).ok());

  HttpClient client(service_->port());
  auto reqs = client.Get("/requests.json");
  ASSERT_TRUE(reqs.ok());
  EXPECT_EQ(reqs->status, 200);
  EXPECT_NE(reqs->body.find("\"traces\":[]"), std::string::npos);
  // No echo when no tracer is attached.
  const std::string sid = OpenWireSession(&client);
  auto resp = client.Post("/v1/sql", "SELECT * FROM by_caller;",
                          {{"X-Chronicle-Session", sid}});
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->FindHeader("traceparent"), nullptr);
}

}  // namespace
}  // namespace chronicle
