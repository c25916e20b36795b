//===- driver/Serve.h - Compile server and wire protocol --------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived compile service behind `gca-compile --serve`: a daemon
/// accepting length-prefixed JSON frames (support/Frame.h) over a Unix
/// socket or a stdin/stdout pipe pair, dispatching compile requests onto a
/// ThreadPool with one shared ResultCache across all clients, and streaming
/// back per-request responses whose `output` field is bitwise-identical to
/// what a one-shot `gca-compile` run prints for the same input — the server
/// is a differential test target for the whole cached-pipeline stack.
///
/// Wire protocol (every frame payload is one JSON object):
///
///   compile request:
///     {"id":N, "name":"...", "source":"...", "stats":false, "plans":true,
///      "options":{"strategy":"comb", "scalarize":true, "fuse":false,
///                 "lint":false, "verify":"final",
///                 "defer_reductions":false, "partial_redundancy":false,
///                 "dump_after":"placement", "params":{"n":64}}}
///     Every field except "source" is optional; omitted options take the
///     CompileOptions defaults. Unknown keys, and a "dump_after" that names
///     no pass of the standard pipeline (or "all"), are rejected
///     (strictness is the protocol fuzzer's oracle).
///   control requests:
///     {"cmd":"ping"}                        liveness probe
///     {"cmd":"metrics","format":"json"}     MetricsSnapshot (or
///                                           "prometheus" text exposition)
///     {"cmd":"drain"}                       graceful drain (as SIGTERM)
///   response:
///     {"id":N, "status":"ok", "output":"...", "cache_hit":false,
///      "wall_s":0.012}
///     status ∈ ok | error (compile/verify failure; output holds the
///     diagnostics) | bad-request | overloaded (admission queue full) |
///     timeout (deadline passed before a worker picked it up) | draining
///     (drain in progress; request rejected) | bad-frame.
///
/// Production-service behavior, from day one:
///  - admission control: at most QueueLimit requests admitted-but-not-yet-
///    started; beyond that, immediate `overloaded` responses (no buildup);
///  - per-request timeout: a deadline stamped at admission and checked at
///    dispatch — a saturated server answers `timeout` instead of compiling
///    work nobody is waiting for any more;
///  - graceful drain (SIGTERM or {"cmd":"drain"}): stop accepting, reject
///    new requests with `draining`, finish and answer every in-flight
///    request, then exit — no admitted request is ever dropped;
///  - per-connection failure domains: garbage/oversized/truncated frames
///    and mid-frame disconnects kill only their connection; and
///  - observability: queue depth, in-flight, latency histograms
///    (p50/p95/p99), and shared-cache hit counters through the existing
///    MetricsSnapshot JSON/Prometheus renderings.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_DRIVER_SERVE_H
#define GCA_DRIVER_SERVE_H

#include "driver/Pipeline.h"
#include "support/Frame.h"
#include "support/Http.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gca {

/// One compile request, decoded from the wire.
struct CompileRequest {
  int64_t Id = 0;
  /// Display name; defaults to "request-<id>". It heads the rendered
  /// output ("== name ==") exactly as an input path does in batch mode.
  std::string Name;
  std::string Source;
  CompileOptions Opts;
  bool Stats = false;
  bool PrintPlans = true;
  /// Optional client identity ("client" key): the per-client accounting
  /// bucket in /statusz. Empty = attributed to the connection (conn-N).
  std::string Client;
  /// Optional client-supplied correlation id ("trace_id" key): echoed in
  /// the response and stamped on every trace span of this request.
  std::string TraceId;
};

/// Decodes \p Doc (a parsed frame payload) into \p Req. Strict: unknown
/// top-level or option keys, wrong types, and a missing "source" all fail
/// with a message in \p Err.
bool parseCompileRequest(const JsonValue &Doc, CompileRequest &Req,
                         std::string &Err);

/// Renders \p Req as a request frame payload (the exact inverse of
/// parseCompileRequest; every option is emitted explicitly). Shared by the
/// load generator and the protocol tests so both sides of the wire agree.
std::string buildCompileRequestJson(const CompileRequest &Req);

/// Everything one compile request produced.
struct CompileOutcome {
  /// Compile error or translation-validation failure — the conditions
  /// that make one-shot gca-compile exit nonzero.
  bool Failed = false;
  bool CacheHit = false;
  double WallSec = 0;
  /// The deterministic output, bitwise-identical to one-shot gca-compile.
  std::string Output;
};

/// The one deterministic-output renderer: "== name ==" header, then errors,
/// or plans / decision logs / dump-after records / diagnostics / stats.
/// Both the batch CLI and the server render through this function, which is
/// what makes the server a byte-exact differential target.
std::string renderCompileOutput(const std::string &Name, const Session &S,
                                const CompileResult &R, bool PrintPlans,
                                bool Stats, bool DumpDecisions);

/// Compiles \p Req (through \p Cache when non-null) and renders its
/// outcome. This is the server's worker body and the load generator's
/// local-expectation oracle.
CompileOutcome runCompileRequest(const CompileRequest &Req,
                                 ResultCache *Cache);

struct ServerConfig {
  /// Unix socket path for start(); unused by serveConnection().
  std::string SocketPath;
  /// Compile workers; 0 = hardware concurrency.
  unsigned Jobs = 0;
  /// Admission bound: max requests admitted but not yet started.
  int QueueLimit = 64;
  /// Seconds from admission to dispatch before a request is answered
  /// `timeout` instead of compiled; 0 disables.
  double RequestTimeoutSec = 0;
  size_t MaxFramePayload = kMaxFramePayload;
  /// Shared across all clients; may be null (uncached server). Owned by
  /// the caller.
  ResultCache *Cache = nullptr;
  /// "HOST:PORT" for the HTTP admin plane (`--admin`); empty = no admin
  /// listener. Port 0 binds an ephemeral port (see adminAddress()).
  std::string AdminSpec;
  /// Structured request log: one JSON line per finished request. Owned by
  /// the caller (the server never opens or closes it); null = no log.
  FILE *LogStream = nullptr;
  /// Requests slower than this (admission -> response, ms) are flagged
  /// `"slow":true` in the log, counted in server.slow-requests, and pinned
  /// into the /tracez slow table. 0 disables.
  double SlowMs = 0;
};

class CompileServer {
public:
  explicit CompileServer(ServerConfig Config);
  /// Drains and joins (requestDrain + wait).
  ~CompileServer();

  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;

  /// Binds SocketPath, listens, and spawns the accept loop. \returns false
  /// with \p Err set when the socket cannot be created.
  bool start(std::string &Err);

  /// Serves one already-open connection (read \p InFd, write \p OutFd)
  /// on the calling thread until EOF or drain — the stdin/stdout framing
  /// fallback (`--serve=stdio`) and the unit tests' socketpair harness.
  void serveConnection(int InFd, int OutFd);

  /// Initiates graceful drain: stop accepting, reject new requests with
  /// `draining`, finish in-flight ones. Idempotent, callable from any
  /// thread (the CLI's signal watcher calls it on SIGTERM).
  void requestDrain();

  bool draining() const { return Draining.load(std::memory_order_acquire); }

  /// Blocks until the accept loop and every connection thread have exited
  /// and all dispatched work has finished. Returns immediately in socket
  /// mode only after requestDrain() (a serving server never drains on its
  /// own).
  void wait();

  /// Current counters, gauges, latency histograms, and (when a cache is
  /// attached) cache statistics.
  MetricsSnapshot metricsSnapshot() const;

  /// One counter or gauge out of metricsSnapshot(); 0 when absent.
  int64_t counter(const std::string &Name) const;

  /// Starts the HTTP admin plane on Config.AdminSpec (`GET /metrics`,
  /// `/healthz`, `/readyz`, `/statusz`, `/tracez`). Independent of start():
  /// a stdio-mode server can still expose an admin port. \returns false
  /// with \p Err set when the spec is empty or the bind fails.
  bool startAdmin(std::string &Err);

  /// "HOST:PORT" the admin plane actually bound (resolves port 0); empty
  /// when no admin listener is running.
  std::string adminAddress() const;

  /// Routes one admin request; public so tests can drive endpoints without
  /// a real TCP connection.
  HttpResponse handleAdmin(const HttpRequest &R);

  /// The /statusz document: uptime, version, queue state, in-flight request
  /// table with per-request age, and the per-client accounting table.
  std::string statuszJson() const;

  /// The /tracez document: recently completed request span summaries plus a
  /// table pinned to the slowest (and every --log-slow-flagged) requests.
  std::string tracezJson() const;

private:
  struct Conn;

  /// In-flight request table row (/statusz).
  struct InflightInfo {
    int64_t Rid = 0; ///< Server-assigned request id.
    int64_t Id = 0;  ///< Client-supplied wire id.
    std::string Client;
    std::string Name;
    std::string TraceId;
    std::chrono::steady_clock::time_point Admitted;
    bool Executing = false; ///< Dispatched to a worker (vs queued).
  };

  /// Per-client accounting (/statusz), keyed by the request's "client"
  /// field, defaulting to the connection identity.
  struct ClientAccount {
    int64_t Requests = 0, Ok = 0, Errors = 0, Rejected = 0, CacheHits = 0;
    int64_t BytesIn = 0, BytesOut = 0;
  };

  /// One completed request's span summary (/tracez ring buffer).
  struct RequestRecord {
    int64_t Rid = 0, Id = 0;
    std::string Client, Name, TraceId, Status;
    bool CacheHit = false, Slow = false;
    int64_t BytesIn = 0, BytesOut = 0;
    double QueueWaitMs = 0, CompileMs = 0, TotalMs = 0;
  };

  void acceptLoop();
  void connLoop(std::shared_ptr<Conn> C);
  /// Dispatches one decoded frame payload. \returns false when the
  /// connection must close (unrecoverable framing state).
  bool handleFrame(const std::shared_ptr<Conn> &C, const std::string &Payload);
  void handleCompile(const std::shared_ptr<Conn> &C, CompileRequest Req,
                     int64_t Rid, uint64_t ReqStartNs, int64_t BytesIn);
  void writeResponse(const std::shared_ptr<Conn> &C,
                     const std::string &Payload);
  void sendStatus(const std::shared_ptr<Conn> &C, int64_t Id,
                  const char *Status, const std::string &Error);
  void recordLatency(int64_t Ns);

  /// The single request-completion path — for responses and rejections
  /// alike: per-client accounting, /tracez record, request log line, the
  /// "request" trace span, then the response write — in that order, so a
  /// scrape racing the client's read never misses a finished request.
  void finishRequest(const std::shared_ptr<Conn> &C, const CompileRequest &Req,
                     int64_t Rid, const char *Status, bool CacheHit,
                     double QueueWaitSec, double CompileSec,
                     std::chrono::steady_clock::time_point Admitted,
                     uint64_t ReqStartNs, int64_t BytesIn,
                     const std::string &Payload);
  void writeLogLine(const RequestRecord &Rec);
  void pushTraceRecord(const RequestRecord &Rec);

  ServerConfig Config;
  std::unique_ptr<ThreadPool> Pool;

  int ListenFd = -1;
  int DrainPipe[2] = {-1, -1}; ///< Written once on drain; polled, never read.
  std::thread AcceptThread;
  std::atomic<bool> Draining{false};
  std::atomic<bool> Started{false};

  std::mutex ConnMu;
  std::vector<std::thread> ConnThreads;

  /// Admission gauge: requests admitted but not yet started.
  std::atomic<int> Queued{0};
  std::atomic<int> Executing{0};

  // Counters (names match metricsSnapshot()).
  std::atomic<int64_t> ConnsAccepted{0}, ConnsActive{0}, Requests{0}, Ok{0},
      CompileErrors{0}, BadRequests{0}, Overloaded{0}, Timeouts{0},
      DrainingRejected{0}, BadFrames{0}, WriteErrors{0}, QueuePeak{0},
      CacheHits{0}, SlowRequests{0};

  mutable std::mutex MetricsMu;
  Histogram Latency;   ///< Admission -> response written, ns.
  Histogram QueueWait; ///< Admission -> dispatch, ns.

  // --- Admin plane -------------------------------------------------------
  std::unique_ptr<HttpServer> Admin;
  const std::chrono::steady_clock::time_point StartedAt =
      std::chrono::steady_clock::now();

  std::atomic<int64_t> NextRid{0};    ///< Server-assigned request ids.
  std::atomic<int64_t> NextConnId{0}; ///< Connection identities (conn-N).

  mutable std::mutex TableMu; ///< Guards Inflight and Clients.
  std::map<int64_t, InflightInfo> Inflight;
  std::map<std::string, ClientAccount> Clients;

  mutable std::mutex TraceMu; ///< Guards Recent and Slowest.
  std::deque<RequestRecord> Recent;  ///< Newest-first ring, cap 64.
  std::vector<RequestRecord> Slowest; ///< Slowest-first, cap 16.

  std::mutex LogMu; ///< Serializes request-log lines.
};

/// Connects to a Unix socket; returns the fd or -1 with \p Err set.
int connectUnixSocket(const std::string &Path, std::string &Err);

} // namespace gca

#endif // GCA_DRIVER_SERVE_H
