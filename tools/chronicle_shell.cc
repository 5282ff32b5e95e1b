// chronicle_shell: an interactive (or scripted) CQL shell.
//
//   $ ./chronicle_shell               # interactive REPL on stdin
//   $ ./chronicle_shell script.cql    # execute a ';'-separated script
//   $ echo "SHOW VIEWS;" | ./chronicle_shell
//   $ ./chronicle_shell --data-dir <dir>   # tiered chronicles spill here
//   $ ./chronicle_shell --shards 4 script.cql   # sharded execution
//
// With --data-dir, chronicles created with tiered retention seal aged rows
// into segment files under <dir>, and \stats shows the per-tier breakdown.
// With --shards N (or \shards N), statements execute against a sharded
// database through the same cql::Session layer the wire service drives,
// so example scripts run both sharded and unsharded.
//
// Statements end with ';' and may span lines. Meta-commands:
//   \profile on|off   toggle per-view maintenance profiling
//   \profile plan on|off  toggle per-slot plan profiling (feeds \explain)
//   \threads <n>      maintain views on n worker threads (1 = serial)
//   \engine <e>       delta kernels: compiled (row) | columnar
//   \shards <n>       reopen as an n-shard database (state is reset!)
//   \wal <dir>        log every mutation to a write-ahead log in <dir>
//   \wal off          sync and detach the write-ahead log
//   \checkpoint       checkpoint the database into the WAL directory
//   \recover <dir>    rebuild state from <dir> (apply the DDL first!),
//                     then resume logging there
//   \stats            observability snapshot, human-readable
//   \stats prom       ... in Prometheus text exposition format
//   \stats json       ... as a machine-readable JSON dump
//   \trace            recent maintenance spans from the trace ring
//   \serve <port>     start the HTTP monitoring endpoint (0 = ephemeral)
//   \serve off        stop it
//   \listen <port> [token]  start the CQL wire service (docs/NETWORK.md)
//   \listen off       stop it
//   \history          stats time-series sparklines (takes a sample)
//   \explain <view>   compiled plan of <view> with sampled time shares
//   \quit             exit
// Errors are printed and the session continues (scripts abort on error).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "cql/session.h"
#include "net/wire_service.h"
#include "obs/export.h"
#include "obs/history.h"
#include "obs/stats.h"

namespace {

using chronicle::ChronicleDatabase;
using chronicle::Tuple;
using chronicle::cql::ExecResult;
using chronicle::cql::Session;

// Renders a result-set as an aligned text table.
void PrintRows(const ExecResult& result) {
  if (result.rows.empty()) return;
  const size_t cols = result.schema.num_fields();
  std::vector<size_t> widths(cols, 0);
  std::vector<std::vector<std::string>> cells;
  // Header.
  std::vector<std::string> header;
  for (size_t c = 0; c < cols; ++c) {
    header.push_back(result.schema.field(c).name);
    widths[c] = header[c].size();
  }
  for (const Tuple& row : result.rows) {
    std::vector<std::string> line;
    for (size_t c = 0; c < cols && c < row.size(); ++c) {
      line.push_back(row[c].ToString());
      widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  auto print_line = [&](const std::vector<std::string>& line) {
    for (size_t c = 0; c < line.size(); ++c) {
      std::printf("%s%-*s", c == 0 ? "| " : " | ", static_cast<int>(widths[c]),
                  line[c].c_str());
    }
    std::printf(" |\n");
  };
  print_line(header);
  for (size_t c = 0; c < cols; ++c) {
    std::printf("%s%s", c == 0 ? "|-" : "-|-", std::string(widths[c], '-').c_str());
  }
  std::printf("-|\n");
  for (const auto& line : cells) print_line(line);
}

// Executes one statement, printing results; returns false on error.
bool RunStatement(Session* session, const std::string& sql) {
  chronicle::Result<ExecResult> result = session->ExecuteSql(sql);
  if (!result.ok()) {
    std::printf("ERROR: %s\n", result.status().ToString().c_str());
    return false;
  }
  if (!result->message.empty()) std::printf("%s\n", result->message.c_str());
  PrintRows(*result);
  return true;
}

// The REPL's mutable state: the session (replaced by \shards) plus the
// wire service bound to it.
struct ShellState {
  chronicle::DatabaseOptions base_options;
  std::unique_ptr<Session> session;
  std::unique_ptr<chronicle::net::WireService> wire;

  bool Reopen(size_t num_shards) {
    wire.reset();  // bound to the old session
    session.reset();
    chronicle::DatabaseOptions options = base_options;
    options.sharding.num_shards = num_shards;
    auto opened = Session::Open(std::move(options));
    if (!opened.ok()) {
      std::printf("ERROR: %s\n", opened.status().ToString().c_str());
      return false;
    }
    session = std::move(opened).value();
    return true;
  }
};

// Handles a \meta command; returns true if it was one.
bool HandleMeta(ShellState* state, const std::string& line, bool* done) {
  if (line.empty() || line[0] != '\\') return false;
  Session* session = state->session.get();
  ChronicleDatabase& engine0 = session->engine0();
  if (line == "\\quit" || line == "\\q") {
    *done = true;
  } else if (line == "\\profile plan on") {
    engine0.SetPlanProfiling(true);
    std::printf("plan profiling on (feeds \\explain)\n");
  } else if (line == "\\profile plan off") {
    engine0.SetPlanProfiling(false);
    std::printf("plan profiling off\n");
  } else if (line == "\\profile on") {
    engine0.view_manager().set_profiling(true);
    std::printf("profiling on\n");
  } else if (line == "\\profile off") {
    engine0.view_manager().set_profiling(false);
    std::printf("profiling off\n");
  } else if (line == "\\serve off") {
    session->StopMonitoring();
    std::printf("monitoring endpoint stopped\n");
  } else if (line.rfind("\\serve ", 0) == 0) {
    char* end = nullptr;
    const unsigned long port = std::strtoul(line.c_str() + 7, &end, 10);
    if (end == nullptr || *end != '\0' || port > 65535) {
      std::printf("usage: \\serve <port>   (0 = ephemeral) | \\serve off\n");
    } else {
      chronicle::Status st =
          session->StartMonitoring(static_cast<uint16_t>(port));
      if (!st.ok()) {
        std::printf("ERROR: %s\n", st.ToString().c_str());
      } else {
        std::printf("serving http://127.0.0.1:%u/ (/metrics /stats.json "
                    "/trace.json /history.json /requests.json /healthz "
                    "/views/<name>/explain.json)\n",
                    unsigned{session->monitoring_port()});
      }
    }
  } else if (line == "\\listen off") {
    state->wire.reset();
    std::printf("wire service stopped\n");
  } else if (line.rfind("\\listen ", 0) == 0) {
    std::istringstream args(line.substr(8));
    std::string port_word, token;
    args >> port_word >> token;
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_word.c_str(), &end, 10);
    if (port_word.empty() || end == nullptr || *end != '\0' || port > 65535) {
      std::printf("usage: \\listen <port> [token]   (0 = ephemeral) "
                  "| \\listen off\n");
    } else {
      state->wire.reset();
      chronicle::net::NetOptions net_options;
      net_options.auth_token = token;
      state->wire = std::make_unique<chronicle::net::WireService>(
          session, net_options);
      chronicle::Status st =
          state->wire->Start(static_cast<uint16_t>(port));
      if (!st.ok()) {
        std::printf("ERROR: %s\n", st.ToString().c_str());
        state->wire.reset();
      } else {
        std::printf("wire service on http://127.0.0.1:%u/ (POST /v1/session "
                    "/v1/sql /v1/append /v1/drain; GET /healthz /stats.json "
                    "/metrics /requests.json /trace.json /history.json)%s\n",
                    unsigned{state->wire->port()},
                    token.empty() ? "" : " [bearer auth]");
      }
    }
  } else if (line.rfind("\\shards ", 0) == 0) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(line.c_str() + 8, &end, 10);
    if (end == nullptr || *end != '\0' || n == 0 || n > 64) {
      std::printf("usage: \\shards <n>   (1 = unsharded; resets state)\n");
    } else if (state->Reopen(static_cast<size_t>(n))) {
      std::printf("reopened with %lu shard(s) — previous state discarded\n",
                  n);
    }
  } else if (line == "\\history") {
    engine0.SampleStatsNow();
    std::printf("%s", chronicle::obs::RenderHistoryText(
                          engine0.history()->Windows())
                          .c_str());
  } else if (line.rfind("\\explain ", 0) == 0) {
    const std::string name = line.substr(9);
    chronicle::Result<std::string> explain = engine0.ExplainView(name);
    if (!explain.ok()) {
      std::printf("ERROR: %s\n", explain.status().ToString().c_str());
    } else {
      std::printf("%s", explain->c_str());
    }
  } else if (line == "\\wal off") {
    chronicle::Status st = session->DetachWal();
    if (!st.ok()) std::printf("ERROR: %s\n", st.ToString().c_str());
    std::printf("wal detached\n");
  } else if (line.rfind("\\wal ", 0) == 0) {
    const std::string dir = line.substr(5);
    chronicle::Status st = session->AttachWal(dir);
    if (!st.ok()) {
      std::printf("ERROR: %s\n", st.ToString().c_str());
    } else {
      std::printf("logging to %s (next lsn %llu)\n", dir.c_str(),
                  static_cast<unsigned long long>(session->wal()->next_lsn()));
    }
  } else if (line.rfind("\\threads ", 0) == 0) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(line.c_str() + 9, &end, 10);
    if (end == nullptr || *end != '\0' || n == 0 || n > 256) {
      std::printf("usage: \\threads <n>   (1 = serial maintenance)\n");
    } else {
      chronicle::MaintenanceOptions options = session->maintenance_options();
      options.num_threads = static_cast<size_t>(n);
      session->ReconfigureMaintenance(options);
      std::printf("maintenance threads: %lu%s\n", n,
                  n == 1 ? " (serial)" : "");
    }
  } else if (line.rfind("\\engine ", 0) == 0) {
    const std::string which = line.substr(8);
    chronicle::MaintenanceOptions options = session->maintenance_options();
    if (which == "compiled") {
      options.use_columnar_kernels = false;
    } else if (which == "columnar") {
      options.use_columnar_kernels = true;
    } else {
      std::printf("usage: \\engine compiled|columnar\n");
      return true;
    }
    session->ReconfigureMaintenance(options);
    std::printf("delta engine: %s\n", which.c_str());
  } else if (line == "\\stats" || line == "\\stats text") {
    std::printf("%s", chronicle::obs::RenderText(session->CollectStats()).c_str());
  } else if (line == "\\stats prom") {
    std::printf("%s",
                chronicle::obs::RenderPrometheus(session->CollectStats()).c_str());
  } else if (line == "\\stats json") {
    std::printf("%s\n",
                chronicle::obs::RenderJson(session->CollectStats()).c_str());
  } else if (line == "\\trace") {
    const chronicle::obs::TraceRing* ring = engine0.trace();
    if (ring == nullptr || !ring->enabled()) {
      std::printf("tracing disabled\n");
    } else {
      std::printf("%s", chronicle::obs::RenderTraceText(
                            ring->Snapshot(), ring->total_emitted(),
                            ring->capacity())
                            .c_str());
    }
  } else if (line == "\\checkpoint") {
    chronicle::Status st = session->WriteCheckpoint();
    if (!st.ok()) {
      std::printf("ERROR: %s\n", st.ToString().c_str());
    } else {
      std::printf("checkpoint written at lsn %llu\n",
                  static_cast<unsigned long long>(
                      session->wal()->last_synced_lsn()));
    }
  } else if (line.rfind("\\recover ", 0) == 0) {
    const std::string dir = line.substr(9);
    chronicle::Result<chronicle::wal::RecoveryReport> report =
        session->Recover(dir);
    if (!report.ok()) {
      std::printf("ERROR: %s\n", report.status().ToString().c_str());
    } else {
      std::printf(
          "recovered to lsn %llu (%s; %llu record(s) replayed%s)\n",
          static_cast<unsigned long long>(report->recovered_lsn()),
          report->checkpoint_restored ? "checkpoint + log tail"
                                      : "log replay from genesis",
          static_cast<unsigned long long>(report->replay.records_applied),
          report->replay.tail_truncated ? "; torn tail discarded" : "");
    }
  } else {
    std::printf(
        "unknown meta-command %s (try \\profile [plan] on|off, \\threads <n>, "
        "\\engine compiled|columnar, \\shards <n>, \\wal <dir>|off, "
        "\\checkpoint, \\recover <dir>, \\stats [prom|json], \\trace, "
        "\\serve <port>|off, \\listen <port> [token]|off, \\history, "
        "\\explain <view>, \\quit)\n",
        line.c_str());
  }
  return true;
}

int RunScriptFile(Session* session, const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  chronicle::Result<ExecResult> result = session->ExecuteScript(buffer.str());
  if (!result.ok()) {
    std::fprintf(stderr, "ERROR: %s\n", result.status().ToString().c_str());
    return 1;
  }
  if (!result->message.empty()) std::printf("%s\n", result->message.c_str());
  PrintRows(*result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ShellState state;
  size_t num_shards = 1;
  const char* script = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--data-dir" && i + 1 < argc) {
      state.base_options.storage.data_dir = argv[++i];
    } else if (arg.rfind("--data-dir=", 0) == 0) {
      state.base_options.storage.data_dir = arg.substr(11);
    } else if (arg == "--shards" && i + 1 < argc) {
      num_shards = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg.rfind("--shards=", 0) == 0) {
      num_shards =
          static_cast<size_t>(std::strtoul(arg.c_str() + 9, nullptr, 10));
    } else if (script == nullptr && !arg.empty() && arg[0] != '-') {
      script = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: chronicle_shell [--data-dir <dir>] "
                   "[--shards <n>] [script.cql]\n");
      return 1;
    }
  }
  if (num_shards == 0 || num_shards > 64) {
    std::fprintf(stderr, "--shards must be in [1, 64]\n");
    return 1;
  }
  if (!state.Reopen(num_shards)) return 1;
  if (script != nullptr) return RunScriptFile(state.session.get(), script);

  const bool interactive = isatty(0);
  if (interactive) {
    std::printf("chronicle shell — end statements with ';', \\quit to exit\n");
  }
  std::string pending;
  std::string line;
  bool done = false;
  while (!done) {
    if (interactive) std::printf(pending.empty() ? "cql> " : "...> ");
    if (!std::getline(std::cin, line)) break;
    // Meta-commands act on whole lines, outside any pending statement.
    if (pending.empty() && HandleMeta(&state, line, &done)) continue;
    pending += line;
    pending += "\n";
    // Execute every complete statement accumulated so far.
    size_t semi;
    while ((semi = pending.find(';')) != std::string::npos) {
      std::string sql = pending.substr(0, semi);
      pending.erase(0, semi + 1);
      // Skip pure-whitespace statements.
      if (sql.find_first_not_of(" \t\r\n") == std::string::npos) continue;
      RunStatement(state.session.get(), sql);
    }
    // Leftover whitespace (the newline after 'stmt;') would otherwise keep
    // `pending` non-empty and block the next meta-command.
    if (pending.find_first_not_of(" \t\r\n") == std::string::npos) {
      pending.clear();
    }
  }
  // The wire service and the monitoring threads call into the session;
  // stop them before it goes away.
  state.wire.reset();
  state.session->StopMonitoring();
  return 0;
}
