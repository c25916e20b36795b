//===- driver/Serve.cpp - Compile server and wire protocol ----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "driver/Serve.h"

#include "driver/CachedPipeline.h"
#include "support/Io.h"
#include "support/StrUtil.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace gca {

//===----------------------------------------------------------------------===//
// Request parsing and rendering
//===----------------------------------------------------------------------===//

namespace {

bool parseStrategy(const std::string &Name, Strategy &Out) {
  for (Strategy S : {Strategy::Orig, Strategy::Earliest, Strategy::Global,
                     Strategy::Optimal, Strategy::EarliestCombine})
    if (Name == strategyName(S)) {
      Out = S;
      return true;
    }
  return false;
}

const char *verifyModeName(VerifyMode M) {
  switch (M) {
  case VerifyMode::Off:
    return "off";
  case VerifyMode::Final:
    return "final";
  case VerifyMode::Each:
    return "each";
  }
  return "off";
}

bool parseOptions(const JsonValue &Doc, CompileOptions &Opts,
                  std::string &Err) {
  for (const auto &[Key, V] : Doc.members()) {
    if (Key == "strategy") {
      if (!V.isString() || !parseStrategy(V.stringValue(),
                                          Opts.Placement.Strat)) {
        Err = "invalid 'strategy'";
        return false;
      }
    } else if (Key == "scalarize") {
      if (!V.isBool()) {
        Err = "'scalarize' must be a bool";
        return false;
      }
      Opts.Scalarize = V.boolValue();
    } else if (Key == "fuse") {
      if (!V.isBool()) {
        Err = "'fuse' must be a bool";
        return false;
      }
      Opts.FuseLoops = V.boolValue();
    } else if (Key == "lint") {
      if (!V.isBool()) {
        Err = "'lint' must be a bool";
        return false;
      }
      Opts.Lint = V.boolValue();
    } else if (Key == "verify") {
      if (!V.isString()) {
        Err = "'verify' must be a string";
        return false;
      }
      const std::string &M = V.stringValue();
      if (M == "off")
        Opts.Verify = VerifyMode::Off;
      else if (M == "final")
        Opts.Verify = VerifyMode::Final;
      else if (M == "each")
        Opts.Verify = VerifyMode::Each;
      else {
        Err = "invalid 'verify' mode";
        return false;
      }
    } else if (Key == "defer_reductions") {
      if (!V.isBool()) {
        Err = "'defer_reductions' must be a bool";
        return false;
      }
      Opts.Placement.DeferReductions = V.boolValue();
    } else if (Key == "partial_redundancy") {
      if (!V.isBool()) {
        Err = "'partial_redundancy' must be a bool";
        return false;
      }
      Opts.Placement.PartialRedundancy = V.boolValue();
    } else if (Key == "dump_after") {
      if (!V.isString()) {
        Err = "'dump_after' must be a string";
        return false;
      }
      if (!isDumpAfterName(V.stringValue())) {
        Err = "invalid 'dump_after'";
        return false;
      }
      Opts.DumpAfter = V.stringValue();
    } else if (Key == "params") {
      if (!V.isObject()) {
        Err = "'params' must be an object";
        return false;
      }
      for (const auto &[PName, PValue] : V.members()) {
        if (!PValue.isIntegral()) {
          Err = "param '" + PName + "' must be an integer";
          return false;
        }
        Opts.Params[PName] = PValue.intValue();
      }
    } else {
      Err = "unknown option key '" + Key + "'";
      return false;
    }
  }
  return true;
}

} // namespace

bool parseCompileRequest(const JsonValue &Doc, CompileRequest &Req,
                         std::string &Err) {
  if (!Doc.isObject()) {
    Err = "request is not a JSON object";
    return false;
  }
  bool HaveSource = false;
  for (const auto &[Key, V] : Doc.members()) {
    if (Key == "id") {
      if (!V.isIntegral()) {
        Err = "'id' must be an integer";
        return false;
      }
      Req.Id = V.intValue();
    } else if (Key == "name") {
      if (!V.isString()) {
        Err = "'name' must be a string";
        return false;
      }
      Req.Name = V.stringValue();
    } else if (Key == "source") {
      if (!V.isString()) {
        Err = "'source' must be a string";
        return false;
      }
      Req.Source = V.stringValue();
      HaveSource = true;
    } else if (Key == "stats") {
      if (!V.isBool()) {
        Err = "'stats' must be a bool";
        return false;
      }
      Req.Stats = V.boolValue();
    } else if (Key == "plans") {
      if (!V.isBool()) {
        Err = "'plans' must be a bool";
        return false;
      }
      Req.PrintPlans = V.boolValue();
    } else if (Key == "client") {
      if (!V.isString()) {
        Err = "'client' must be a string";
        return false;
      }
      Req.Client = V.stringValue();
    } else if (Key == "trace_id") {
      if (!V.isString()) {
        Err = "'trace_id' must be a string";
        return false;
      }
      Req.TraceId = V.stringValue();
    } else if (Key == "options") {
      if (!V.isObject()) {
        Err = "'options' must be an object";
        return false;
      }
      if (!parseOptions(V, Req.Opts, Err))
        return false;
    } else {
      Err = "unknown request key '" + Key + "'";
      return false;
    }
  }
  if (!HaveSource) {
    Err = "missing 'source'";
    return false;
  }
  if (Req.Name.empty())
    Req.Name = "request-" + std::to_string(Req.Id);
  return true;
}

std::string buildCompileRequestJson(const CompileRequest &Req) {
  JsonWriter W;
  W.beginObject();
  W.key("id").value(Req.Id);
  W.key("name").value(Req.Name);
  W.key("source").value(Req.Source);
  W.key("stats").value(Req.Stats);
  W.key("plans").value(Req.PrintPlans);
  // Emitted only when set so requests from trace-unaware builders stay
  // byte-identical to the pre-admin-plane wire format.
  if (!Req.Client.empty())
    W.key("client").value(Req.Client);
  if (!Req.TraceId.empty())
    W.key("trace_id").value(Req.TraceId);
  W.key("options").beginObject();
  W.key("strategy").value(strategyName(Req.Opts.Placement.Strat));
  W.key("scalarize").value(Req.Opts.Scalarize);
  W.key("fuse").value(Req.Opts.FuseLoops);
  W.key("lint").value(Req.Opts.Lint);
  W.key("verify").value(verifyModeName(Req.Opts.Verify));
  W.key("defer_reductions").value(Req.Opts.Placement.DeferReductions);
  W.key("partial_redundancy").value(Req.Opts.Placement.PartialRedundancy);
  if (!Req.Opts.DumpAfter.empty())
    W.key("dump_after").value(Req.Opts.DumpAfter);
  W.key("params").beginObject();
  for (const auto &[Name, Value] : Req.Opts.Params)
    W.key(Name).value(static_cast<int64_t>(Value));
  W.endObject();
  W.endObject();
  W.endObject();
  return W.str();
}

std::string renderCompileOutput(const std::string &Name, const Session &S,
                                const CompileResult &R, bool PrintPlans,
                                bool Stats, bool DumpDecisions) {
  std::string D = "== " + Name + " ==\n";
  if (!R.Ok) {
    D += R.Errors;
    return D;
  }
  // planText() renders replayed and freshly-computed plans from the same
  // bytes, so cache hits are bitwise-identical to cold runs.
  if (PrintPlans)
    D += R.planText();
  if (DumpDecisions)
    for (const RoutineResult &RR : R.Routines)
      D += "-- decisions: " + RR.R->name() + " --\n" +
           RR.Plan.decisionsStr(*RR.R);
  for (const auto &[Pass, Dump] : S.Dumps)
    D += "-- dump after " + Pass + " --\n" + Dump;
  if (!R.Diagnostics.empty())
    D += R.Diagnostics;
  if (Stats)
    D += S.Stats.str();
  return D;
}

CompileOutcome runCompileRequest(const CompileRequest &Req,
                                 ResultCache *Cache) {
  CompileOutcome Out;
  auto Start = std::chrono::steady_clock::now();
  Session S(Req.Source, Req.Opts);
  bool CacheHit = false;
  if (Cache) {
    CachedPipeline CP(*Cache);
    CacheHit = CP.run(S);
  } else {
    S.run();
  }
  CompileResult R = S.take();
  Out.WallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Out.CacheHit = CacheHit;
  Out.Failed = !R.Ok || !R.VerifyOk;
  Out.Output = renderCompileOutput(Req.Name, S, R, Req.PrintPlans, Req.Stats,
                                   /*DumpDecisions=*/false);
  return Out;
}

//===----------------------------------------------------------------------===//
// CompileServer
//===----------------------------------------------------------------------===//

/// Per-connection state. Shared between the connection's reader thread and
/// the pool workers answering its requests, so it outlives the reader via
/// shared_ptr; the write mutex keeps response frames atomic on the stream.
struct CompileServer::Conn {
  int InFd = -1;
  int OutFd = -1;
  /// False for serveConnection() callers (stdio mode must not close the
  /// process's own stdin/stdout).
  bool OwnsFds = true;
  /// Accounting identity for requests that carry no "client" field.
  std::string DefaultClient = "conn-0";

  std::mutex WriteMu;
  bool Dead = false; ///< A response write failed; drop later responses.

  std::mutex Mu;
  std::condition_variable CV;
  int InFlight = 0; ///< Admitted requests whose response is not yet written.

  void addInFlight() {
    std::lock_guard<std::mutex> L(Mu);
    ++InFlight;
  }
  void subInFlight() {
    std::lock_guard<std::mutex> L(Mu);
    --InFlight;
    CV.notify_all();
  }
  int inFlight() {
    std::lock_guard<std::mutex> L(Mu);
    return InFlight;
  }
  void waitIdle() {
    std::unique_lock<std::mutex> L(Mu);
    CV.wait(L, [this] { return InFlight == 0; });
  }
};

CompileServer::CompileServer(ServerConfig C) : Config(std::move(C)) {
  if (Config.QueueLimit < 0)
    Config.QueueLimit = 0;
  Pool = std::make_unique<ThreadPool>(Config.Jobs, "serve");
  if (::pipe(DrainPipe) != 0)
    DrainPipe[0] = DrainPipe[1] = -1;
}

CompileServer::~CompileServer() {
  requestDrain();
  wait();
  for (int Fd : DrainPipe)
    if (Fd >= 0)
      ::close(Fd);
}

bool CompileServer::start(std::string &Err) {
  struct sockaddr_un Addr;
  if (Config.SocketPath.empty() ||
      Config.SocketPath.size() >= sizeof Addr.sun_path) {
    Err = "invalid socket path '" + Config.SocketPath + "'";
    return false;
  }
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0) {
    Err = strFormat("socket: %s", std::strerror(errno));
    return false;
  }
  // The server owns its path: a leftover socket file from a dead instance
  // must not keep a new one from binding.
  ::unlink(Config.SocketPath.c_str());
  std::memset(&Addr, 0, sizeof Addr);
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Config.SocketPath.c_str(),
               sizeof Addr.sun_path - 1);
  if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof Addr) != 0) {
    Err = strFormat("bind '%s': %s", Config.SocketPath.c_str(),
                    std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 128) != 0) {
    Err = strFormat("listen: %s", std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Config.SocketPath.c_str());
    return false;
  }
  AcceptThread = std::thread([this] { acceptLoop(); });
  Started.store(true, std::memory_order_release);
  return true;
}

void CompileServer::acceptLoop() {
  while (!draining()) {
    struct pollfd P[2] = {{ListenFd, POLLIN, 0}, {DrainPipe[0], POLLIN, 0}};
    int N = ::poll(P, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (P[1].revents != 0)
      break; // Drain requested.
    if (!(P[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED)
        continue;
      break;
    }
    ConnsAccepted.fetch_add(1, std::memory_order_relaxed);
    auto C = std::make_shared<Conn>();
    C->InFd = C->OutFd = Fd;
    C->DefaultClient =
        "conn-" +
        std::to_string(NextConnId.fetch_add(1, std::memory_order_relaxed) + 1);
    std::lock_guard<std::mutex> L(ConnMu);
    ConnThreads.emplace_back([this, C] { connLoop(C); });
  }
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(Config.SocketPath.c_str());
}

void CompileServer::serveConnection(int InFd, int OutFd) {
  auto C = std::make_shared<Conn>();
  C->InFd = InFd;
  C->OutFd = OutFd;
  C->OwnsFds = false;
  C->DefaultClient =
      "conn-" +
      std::to_string(NextConnId.fetch_add(1, std::memory_order_relaxed) + 1);
  connLoop(C);
}

void CompileServer::connLoop(std::shared_ptr<Conn> C) {
  ConnsActive.fetch_add(1, std::memory_order_relaxed);
  while (true) {
    if (draining() && C->inFlight() == 0)
      break;
    struct pollfd P[2] = {{C->InFd, POLLIN, 0}, {DrainPipe[0], POLLIN, 0}};
    // While draining (or waiting out in-flight work) poll with a short
    // timeout so the in-flight==0 exit condition is rechecked.
    int N = ::poll(P, 2, draining() ? 20 : -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (!(P[0].revents & (POLLIN | POLLHUP | POLLERR)))
      continue;
    std::string Payload;
    uint32_t DeclaredLen = 0;
    FrameStatus FS =
        readFrame(C->InFd, Payload, Config.MaxFramePayload, &DeclaredLen);
    if (FS == FrameStatus::Ok) {
      if (handleFrame(C, Payload))
        continue;
      break;
    }
    if (FS == FrameStatus::Eof)
      break; // Clean close on a frame boundary.
    // Truncated / garbage / oversized / I/O error: this connection's stream
    // is unrecoverable. Tell the peer when the stream is still writable,
    // then drop ONLY this connection — other clients are untouched.
    BadFrames.fetch_add(1, std::memory_order_relaxed);
    if (FS == FrameStatus::Garbage)
      sendStatus(C, 0, "bad-frame", "frame header lacks magic; stream "
                                    "unsynchronized");
    else if (FS == FrameStatus::Oversized)
      sendStatus(C, 0, "bad-frame",
                 strFormat("declared payload of %u bytes exceeds cap of %zu",
                           DeclaredLen, Config.MaxFramePayload));
    break;
  }
  // Never drop an admitted request: in-flight compiles finish and write
  // their responses (best-effort if the peer vanished) before the fds go.
  C->waitIdle();
  if (C->OwnsFds)
    ::close(C->InFd); // InFd == OutFd for socket connections.
  ConnsActive.fetch_sub(1, std::memory_order_relaxed);
}

bool CompileServer::handleFrame(const std::shared_ptr<Conn> &C,
                                const std::string &Payload) {
  const int64_t BytesIn =
      static_cast<int64_t>(Payload.size() + kFrameHeaderBytes);
  TraceCollector &TC = TraceCollector::instance();
  const uint64_t ParseStartNs = TC.enabled() ? TC.nowNs() : 0;
  JsonValue Doc;
  std::string Err;
  // A payload that fails to parse as a request is still a request for
  // accounting purposes: it gets a server rid, is attributed to the
  // connection's client bucket as rejected, and leaves a log line.
  auto RejectBad = [&](const CompileRequest &Req, const std::string &Msg) {
    BadRequests.fetch_add(1, std::memory_order_relaxed);
    int64_t Rid = NextRid.fetch_add(1, std::memory_order_relaxed) + 1;
    JsonWriter W;
    W.beginObject();
    W.key("id").value(Req.Id);
    W.key("rid").value(Rid);
    if (!Req.TraceId.empty())
      W.key("trace_id").value(Req.TraceId);
    W.key("status").value("bad-request");
    W.key("error").value(Msg);
    W.endObject();
    finishRequest(C, Req, Rid, "bad-request", /*CacheHit=*/false,
                  /*QueueWaitSec=*/0, /*CompileSec=*/0,
                  std::chrono::steady_clock::now(), ParseStartNs, BytesIn,
                  W.str());
  };
  if (!JsonValue::parse(Payload, Doc, Err)) {
    // The framing layer is still synchronized; only the payload was bad.
    RejectBad(CompileRequest(), Err);
    return true;
  }
  if (!Doc.isObject()) {
    RejectBad(CompileRequest(), "payload is not a JSON object");
    return true;
  }
  if (const JsonValue *Cmd = Doc.get("cmd")) {
    if (!Cmd->isString()) {
      BadRequests.fetch_add(1, std::memory_order_relaxed);
      sendStatus(C, 0, "bad-request", "'cmd' must be a string");
      return true;
    }
    const std::string &Name = Cmd->stringValue();
    if (Name == "ping") {
      JsonWriter W;
      W.beginObject();
      W.key("status").value("ok");
      W.key("pong").value(true);
      W.key("draining").value(draining());
      W.endObject();
      writeResponse(C, W.str());
      return true;
    }
    if (Name == "metrics") {
      bool Prometheus = false;
      if (const JsonValue *F = Doc.get("format"))
        Prometheus = F->isString() && F->stringValue() == "prometheus";
      MetricsSnapshot Snap = metricsSnapshot();
      JsonWriter W;
      W.beginObject();
      W.key("status").value("ok");
      if (Prometheus)
        W.key("metrics").value(Snap.prometheus());
      else
        W.key("metrics").raw(Snap.json());
      W.endObject();
      writeResponse(C, W.str());
      return true;
    }
    if (Name == "drain") {
      JsonWriter W;
      W.beginObject();
      W.key("status").value("ok");
      W.key("draining").value(true);
      W.endObject();
      writeResponse(C, W.str());
      requestDrain();
      return true;
    }
    BadRequests.fetch_add(1, std::memory_order_relaxed);
    sendStatus(C, 0, "bad-request", "unknown cmd '" + Name + "'");
    return true;
  }
  CompileRequest Req;
  if (!parseCompileRequest(Doc, Req, Err)) {
    RejectBad(Req, Err);
    return true;
  }
  int64_t Rid = NextRid.fetch_add(1, std::memory_order_relaxed) + 1;
  if (TC.enabled())
    TC.completeSpan("parse", "serve", ParseStartNs, TC.nowNs() - ParseStartNs,
                    {{"rid", Rid}});
  handleCompile(C, std::move(Req), Rid, ParseStartNs, BytesIn);
  return true;
}

void CompileServer::handleCompile(const std::shared_ptr<Conn> &C,
                                  CompileRequest Req, int64_t Rid,
                                  uint64_t ReqStartNs, int64_t BytesIn) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  auto StatusPayload = [&](const char *Status, const std::string &Error) {
    JsonWriter W;
    W.beginObject();
    W.key("id").value(Req.Id);
    W.key("rid").value(Rid);
    if (!Req.TraceId.empty())
      W.key("trace_id").value(Req.TraceId);
    W.key("status").value(Status);
    W.key("error").value(Error);
    W.endObject();
    return W.str();
  };
  if (draining()) {
    DrainingRejected.fetch_add(1, std::memory_order_relaxed);
    finishRequest(C, Req, Rid, "draining", /*CacheHit=*/false, 0, 0,
                  std::chrono::steady_clock::now(), ReqStartNs, BytesIn,
                  StatusPayload("draining",
                                "server is draining; request rejected"));
    return;
  }
  // Admission control: bounded queue of admitted-but-not-started work.
  // Saturation answers immediately instead of buying unbounded latency.
  int Q = Queued.load(std::memory_order_relaxed);
  do {
    if (Q >= Config.QueueLimit) {
      Overloaded.fetch_add(1, std::memory_order_relaxed);
      finishRequest(C, Req, Rid, "overloaded", /*CacheHit=*/false, 0, 0,
                    std::chrono::steady_clock::now(), ReqStartNs, BytesIn,
                    StatusPayload(
                        "overloaded",
                        strFormat("admission queue full (%d queued, limit %d)",
                                  Q, Config.QueueLimit)));
      return;
    }
  } while (!Queued.compare_exchange_weak(Q, Q + 1, std::memory_order_relaxed));
  int64_t Peak = QueuePeak.load(std::memory_order_relaxed);
  while (Q + 1 > Peak &&
         !QueuePeak.compare_exchange_weak(Peak, Q + 1,
                                          std::memory_order_relaxed)) {
  }
  C->addInFlight();
  auto Admitted = std::chrono::steady_clock::now();
  TraceCollector &TC = TraceCollector::instance();
  const uint64_t AdmittedNs = TC.enabled() ? TC.nowNs() : 0;
  {
    std::lock_guard<std::mutex> L(TableMu);
    InflightInfo &I = Inflight[Rid];
    I.Rid = Rid;
    I.Id = Req.Id;
    I.Client = Req.Client.empty() ? C->DefaultClient : Req.Client;
    I.Name = Req.Name;
    I.TraceId = Req.TraceId;
    I.Admitted = Admitted;
  }
  Pool->async([this, C, Req, Rid, ReqStartNs, BytesIn, Admitted,
               AdmittedNs] {
    Queued.fetch_sub(1, std::memory_order_relaxed);
    auto Dispatched = std::chrono::steady_clock::now();
    double WaitSec =
        std::chrono::duration<double>(Dispatched - Admitted).count();
    {
      std::lock_guard<std::mutex> L(MetricsMu);
      QueueWait.record(static_cast<int64_t>(WaitSec * 1e9));
    }
    TraceCollector &TC = TraceCollector::instance();
    if (TC.enabled())
      TC.completeSpan("queue-wait", "serve", AdmittedNs,
                      static_cast<uint64_t>(WaitSec * 1e9), {{"rid", Rid}});
    auto StatusPayload = [&](const char *Status, const std::string &Error) {
      JsonWriter W;
      W.beginObject();
      W.key("id").value(Req.Id);
      W.key("rid").value(Rid);
      if (!Req.TraceId.empty())
        W.key("trace_id").value(Req.TraceId);
      W.key("status").value(Status);
      W.key("error").value(Error);
      W.endObject();
      return W.str();
    };
    if (Config.RequestTimeoutSec > 0 && WaitSec > Config.RequestTimeoutSec) {
      Timeouts.fetch_add(1, std::memory_order_relaxed);
      finishRequest(C, Req, Rid, "timeout", /*CacheHit=*/false, WaitSec, 0,
                    Admitted, ReqStartNs, BytesIn,
                    StatusPayload(
                        "timeout",
                        strFormat("deadline of %.3f s passed before dispatch "
                                  "(waited %.3f s)",
                                  Config.RequestTimeoutSec, WaitSec)));
      C->subInFlight();
      return;
    }
    TraceSpan DispatchSpan("dispatch", "serve",
                           {{"rid", Rid},
                            {"trace_id", Req.TraceId},
                            {"client", Req.Client.empty() ? C->DefaultClient
                                                          : Req.Client}});
    {
      std::lock_guard<std::mutex> L(TableMu);
      auto It = Inflight.find(Rid);
      if (It != Inflight.end())
        It->second.Executing = true;
    }
    Executing.fetch_add(1, std::memory_order_relaxed);
    CompileOutcome Out;
    {
      TraceSpan CompileSpan("compile", "serve", {{"rid", Rid}});
      Out = runCompileRequest(Req, Config.Cache);
    }
    Executing.fetch_sub(1, std::memory_order_relaxed);
    if (Out.Failed)
      CompileErrors.fetch_add(1, std::memory_order_relaxed);
    else
      Ok.fetch_add(1, std::memory_order_relaxed);
    if (Out.CacheHit)
      CacheHits.fetch_add(1, std::memory_order_relaxed);
    std::string Payload;
    {
      TraceSpan RenderSpan("render", "serve", {{"rid", Rid}});
      JsonWriter W;
      W.beginObject();
      W.key("id").value(Req.Id);
      W.key("rid").value(Rid);
      if (!Req.TraceId.empty())
        W.key("trace_id").value(Req.TraceId);
      W.key("status").value(Out.Failed ? "error" : "ok");
      W.key("output").value(Out.Output);
      W.key("cache_hit").value(Out.CacheHit);
      W.key("wall_s").value(Out.WallSec);
      W.endObject();
      Payload = W.str();
    }
    finishRequest(C, Req, Rid, Out.Failed ? "error" : "ok", Out.CacheHit,
                  WaitSec, Out.WallSec, Admitted, ReqStartNs, BytesIn,
                  Payload);
    C->subInFlight();
  });
}

void CompileServer::writeResponse(const std::shared_ptr<Conn> &C,
                                  const std::string &Payload) {
  std::lock_guard<std::mutex> L(C->WriteMu);
  if (C->Dead)
    return;
  if (writeFrame(C->OutFd, Payload) != FrameStatus::Ok) {
    C->Dead = true;
    WriteErrors.fetch_add(1, std::memory_order_relaxed);
  }
}

void CompileServer::sendStatus(const std::shared_ptr<Conn> &C, int64_t Id,
                               const char *Status, const std::string &Error) {
  JsonWriter W;
  W.beginObject();
  W.key("id").value(Id);
  W.key("status").value(Status);
  W.key("error").value(Error);
  W.endObject();
  writeResponse(C, W.str());
}

void CompileServer::recordLatency(int64_t Ns) {
  std::lock_guard<std::mutex> L(MetricsMu);
  Latency.record(Ns);
}

void CompileServer::finishRequest(const std::shared_ptr<Conn> &C,
                                  const CompileRequest &Req, int64_t Rid,
                                  const char *Status, bool CacheHit,
                                  double QueueWaitSec, double CompileSec,
                                  std::chrono::steady_clock::time_point
                                      Admitted,
                                  uint64_t ReqStartNs, int64_t BytesIn,
                                  const std::string &Payload) {
  const auto Now = std::chrono::steady_clock::now();
  const double TotalSec =
      std::chrono::duration<double>(Now - Admitted).count();
  const bool IsOk = std::strcmp(Status, "ok") == 0;
  const bool IsError = std::strcmp(Status, "error") == 0;
  const int64_t BytesOut =
      static_cast<int64_t>(Payload.size() + kFrameHeaderBytes);
  const std::string Client =
      Req.Client.empty() ? C->DefaultClient : Req.Client;

  // Latency covers compiled requests only (ok/error), as before the admin
  // plane: a rejection answered in microseconds must not deflate p50.
  if (IsOk || IsError)
    recordLatency(static_cast<int64_t>(TotalSec * 1e9));

  RequestRecord Rec;
  Rec.Rid = Rid;
  Rec.Id = Req.Id;
  Rec.Client = Client;
  Rec.Name = Req.Name;
  Rec.TraceId = Req.TraceId;
  Rec.Status = Status;
  Rec.CacheHit = CacheHit;
  Rec.BytesIn = BytesIn;
  Rec.BytesOut = BytesOut;
  Rec.QueueWaitMs = QueueWaitSec * 1e3;
  Rec.CompileMs = CompileSec * 1e3;
  Rec.TotalMs = TotalSec * 1e3;
  Rec.Slow = Config.SlowMs > 0 && Rec.TotalMs >= Config.SlowMs;
  if (Rec.Slow)
    SlowRequests.fetch_add(1, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> L(TableMu);
    Inflight.erase(Rid);
    ClientAccount &Acc = Clients[Client];
    Acc.Requests += 1;
    if (IsOk)
      Acc.Ok += 1;
    else if (IsError)
      Acc.Errors += 1;
    else
      Acc.Rejected += 1;
    if (CacheHit)
      Acc.CacheHits += 1;
    Acc.BytesIn += BytesIn;
    Acc.BytesOut += BytesOut;
  }
  pushTraceRecord(Rec);
  writeLogLine(Rec);

  TraceCollector &TC = TraceCollector::instance();
  if (TC.enabled())
    TC.completeSpan("request", "serve", ReqStartNs, TC.nowNs() - ReqStartNs,
                    {{"rid", Rid},
                     {"trace_id", Req.TraceId},
                     {"client", Client},
                     {"status", Status}});

  // Everything above happened before the client can observe its response:
  // a scrape racing the reply sees a consistent, completed request.
  writeResponse(C, Payload);
}

void CompileServer::pushTraceRecord(const RequestRecord &Rec) {
  constexpr size_t kRecentCap = 64;
  constexpr size_t kSlowestCap = 16;
  std::lock_guard<std::mutex> L(TraceMu);
  Recent.push_front(Rec);
  if (Recent.size() > kRecentCap)
    Recent.pop_back();
  // The slow table keeps the all-time slowest: a --log-slow-flagged request
  // can only be displaced by a strictly slower one, never by recency.
  if (Slowest.size() < kSlowestCap) {
    Slowest.push_back(Rec);
    std::sort(Slowest.begin(), Slowest.end(),
              [](const RequestRecord &A, const RequestRecord &B) {
                return A.TotalMs > B.TotalMs;
              });
  } else if (Rec.TotalMs > Slowest.back().TotalMs) {
    Slowest.back() = Rec;
    std::sort(Slowest.begin(), Slowest.end(),
              [](const RequestRecord &A, const RequestRecord &B) {
                return A.TotalMs > B.TotalMs;
              });
  }
}

void CompileServer::writeLogLine(const RequestRecord &Rec) {
  if (!Config.LogStream)
    return;
  JsonWriter W;
  W.beginObject();
  W.key("ts_s").value(std::chrono::duration<double>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count());
  W.key("rid").value(Rec.Rid);
  W.key("id").value(Rec.Id);
  W.key("client").value(Rec.Client);
  W.key("name").value(Rec.Name);
  if (!Rec.TraceId.empty())
    W.key("trace_id").value(Rec.TraceId);
  W.key("status").value(Rec.Status);
  W.key("cache_hit").value(Rec.CacheHit);
  W.key("queue_wait_ms").value(Rec.QueueWaitMs);
  W.key("compile_ms").value(Rec.CompileMs);
  W.key("total_ms").value(Rec.TotalMs);
  W.key("bytes_in").value(Rec.BytesIn);
  W.key("bytes_out").value(Rec.BytesOut);
  W.key("slow").value(Rec.Slow);
  W.endObject();
  std::lock_guard<std::mutex> L(LogMu);
  std::fprintf(Config.LogStream, "%s\n", W.str().c_str());
  std::fflush(Config.LogStream);
}

void CompileServer::requestDrain() {
  bool Expected = false;
  if (!Draining.compare_exchange_strong(Expected, true,
                                        std::memory_order_acq_rel))
    return;
  // Wake every poller: one byte, never consumed, keeps the read end
  // readable for all current and future poll() calls.
  if (DrainPipe[1] >= 0)
    (void)ioWriteFull(DrainPipe[1], "x", 1);
}

void CompileServer::wait() {
  if (AcceptThread.joinable())
    AcceptThread.join();
  // After the accept loop exits no new connection threads can appear.
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> L(ConnMu);
    Threads.swap(ConnThreads);
  }
  for (std::thread &T : Threads)
    T.join();
  Pool->wait();
  // The admin plane outlives the wire protocol on purpose: /readyz answers
  // 503 for the entire drain window, and a final scrape still works while
  // the last responses are being written. It stops only once everything
  // else is done.
  if (Admin)
    Admin->stop();
}

//===----------------------------------------------------------------------===//
// Admin plane
//===----------------------------------------------------------------------===//

bool CompileServer::startAdmin(std::string &Err) {
  if (Config.AdminSpec.empty()) {
    Err = "no --admin address configured";
    return false;
  }
  if (Admin) {
    Err = "admin server already started";
    return false;
  }
  // Publish Admin before the listener can accept: the first scrape may
  // arrive inside start(), and its handler thread reads Admin (for the
  // admin.* gauges) — assigning afterwards would race that read.
  Admin = std::make_unique<HttpServer>(
      [this](const HttpRequest &R) { return handleAdmin(R); });
  if (!Admin->start(Config.AdminSpec, Err)) {
    Admin.reset();
    return false;
  }
  return true;
}

std::string CompileServer::adminAddress() const {
  return Admin ? Admin->address() : std::string();
}

HttpResponse CompileServer::handleAdmin(const HttpRequest &R) {
  HttpResponse Resp;
  if (R.Method != "GET") {
    Resp.Status = 405;
    Resp.Body = "method not allowed\n";
    Resp.ExtraHeaders.emplace_back("Allow", "GET");
    return Resp;
  }
  const std::string Path = R.path();
  if (Path == "/metrics") {
    // The canonical Prometheus content type; the body is the same
    // exposition the socket metrics command returns.
    Resp.ContentType = "text/plain; version=0.0.4; charset=utf-8";
    Resp.Body = metricsSnapshot().prometheus();
    return Resp;
  }
  if (Path == "/healthz") {
    Resp.Body = "ok\n";
    return Resp;
  }
  if (Path == "/readyz") {
    if (draining()) {
      Resp.Status = 503;
      Resp.Body = "draining\n";
    } else {
      Resp.Body = "ready\n";
    }
    return Resp;
  }
  if (Path == "/statusz") {
    Resp.ContentType = "application/json";
    Resp.Body = statuszJson();
    return Resp;
  }
  if (Path == "/tracez") {
    Resp.ContentType = "application/json";
    Resp.Body = tracezJson();
    return Resp;
  }
  Resp.Status = 404;
  Resp.Body = "not found\n";
  return Resp;
}

std::string CompileServer::statuszJson() const {
  const auto Now = std::chrono::steady_clock::now();
  JsonWriter W;
  W.beginObject();
  W.key("uptime_s").value(
      std::chrono::duration<double>(Now - StartedAt).count());
  W.key("version").value(kGcaCacheVersion);
  W.key("draining").value(draining());
  W.key("jobs").value(static_cast<int64_t>(Pool->numThreads()));
  W.key("queue_depth").value(
      static_cast<int64_t>(Queued.load(std::memory_order_relaxed)));
  W.key("queue_limit").value(static_cast<int64_t>(Config.QueueLimit));
  W.key("executing").value(
      static_cast<int64_t>(Executing.load(std::memory_order_relaxed)));
  std::lock_guard<std::mutex> L(TableMu);
  W.key("inflight").beginArray();
  for (const auto &[Rid, I] : Inflight) {
    W.beginObject();
    W.key("rid").value(Rid);
    W.key("id").value(I.Id);
    W.key("client").value(I.Client);
    W.key("name").value(I.Name);
    if (!I.TraceId.empty())
      W.key("trace_id").value(I.TraceId);
    W.key("age_ms").value(
        std::chrono::duration<double>(Now - I.Admitted).count() * 1e3);
    W.key("executing").value(I.Executing);
    W.endObject();
  }
  W.endArray();
  W.key("clients").beginObject();
  for (const auto &[Name, Acc] : Clients) {
    W.key(Name).beginObject();
    W.key("requests").value(Acc.Requests);
    W.key("ok").value(Acc.Ok);
    W.key("errors").value(Acc.Errors);
    W.key("rejected").value(Acc.Rejected);
    W.key("cache_hits").value(Acc.CacheHits);
    W.key("bytes_in").value(Acc.BytesIn);
    W.key("bytes_out").value(Acc.BytesOut);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.str();
}

std::string CompileServer::tracezJson() const {
  auto EmitRecord = [](JsonWriter &W, const RequestRecord &Rec) {
    W.beginObject();
    W.key("rid").value(Rec.Rid);
    W.key("id").value(Rec.Id);
    W.key("client").value(Rec.Client);
    W.key("name").value(Rec.Name);
    if (!Rec.TraceId.empty())
      W.key("trace_id").value(Rec.TraceId);
    W.key("status").value(Rec.Status);
    W.key("cache_hit").value(Rec.CacheHit);
    W.key("slow").value(Rec.Slow);
    W.key("bytes_in").value(Rec.BytesIn);
    W.key("bytes_out").value(Rec.BytesOut);
    W.key("total_ms").value(Rec.TotalMs);
    // The span tree: queue-wait and compile are measured; render/transport
    // is whatever remains of the request's total.
    W.key("spans").beginArray();
    W.beginObject();
    W.key("name").value("queue-wait");
    W.key("ms").value(Rec.QueueWaitMs);
    W.endObject();
    W.beginObject();
    W.key("name").value("compile");
    W.key("ms").value(Rec.CompileMs);
    W.endObject();
    W.beginObject();
    W.key("name").value("render");
    W.key("ms").value(std::max(0.0, Rec.TotalMs - Rec.QueueWaitMs -
                                        Rec.CompileMs));
    W.endObject();
    W.endArray();
    W.endObject();
  };
  JsonWriter W;
  W.beginObject();
  std::lock_guard<std::mutex> L(TraceMu);
  W.key("recent").beginArray();
  for (const RequestRecord &Rec : Recent)
    EmitRecord(W, Rec);
  W.endArray();
  W.key("slowest").beginArray();
  for (const RequestRecord &Rec : Slowest)
    EmitRecord(W, Rec);
  W.endArray();
  W.endObject();
  return W.str();
}

MetricsSnapshot CompileServer::metricsSnapshot() const {
  MetricsSnapshot Snap;
  auto Load = [](const std::atomic<int64_t> &A) {
    return A.load(std::memory_order_relaxed);
  };
  Snap.Counters["server.connections-accepted"] = Load(ConnsAccepted);
  Snap.Gauges["server.connections-active"] = Load(ConnsActive);
  Snap.Counters["server.requests"] = Load(Requests);
  Snap.Counters["server.ok"] = Load(Ok);
  Snap.Counters["server.compile-errors"] = Load(CompileErrors);
  Snap.Counters["server.bad-requests"] = Load(BadRequests);
  Snap.Counters["server.overloaded"] = Load(Overloaded);
  Snap.Counters["server.timeouts"] = Load(Timeouts);
  Snap.Counters["server.draining-rejected"] = Load(DrainingRejected);
  Snap.Counters["server.bad-frames"] = Load(BadFrames);
  Snap.Counters["server.write-errors"] = Load(WriteErrors);
  Snap.Counters["server.cache-hits"] = Load(CacheHits);
  Snap.Gauges["server.queue-depth"] = Queued.load(std::memory_order_relaxed);
  Snap.Gauges["server.inflight"] = Executing.load(std::memory_order_relaxed);
  Snap.Counters["server.queue-peak"] = Load(QueuePeak);
  Snap.Gauges["server.queue-limit"] = Config.QueueLimit;
  Snap.Gauges["server.jobs"] = Pool->numThreads();
  Snap.Gauges["server.draining"] = draining() ? 1 : 0;
  Snap.Counters["server.slow-requests"] = Load(SlowRequests);
  Snap.Counters["server.uptime-seconds"] = static_cast<int64_t>(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    StartedAt)
          .count());
  if (Admin) {
    Snap.Counters["admin.requests"] = Admin->requestsServed();
    Snap.Counters["admin.bad-requests"] = Admin->badRequests();
  }
  Snap.Counters["io.faults-injected"] = FaultInjector::instance().injected();
  if (Config.Cache) {
    CacheStats CS = Config.Cache->stats();
    Snap.Counters["cache.hits"] = CS.Hits;
    Snap.Counters["cache.misses"] = CS.Misses;
    Snap.Counters["cache.evictions"] = CS.Evictions;
    Snap.Counters["cache.disk-hits"] = CS.DiskHits;
    Snap.Counters["cache.disk-errors"] = CS.DiskErrors;
    Snap.Counters["cache.routine-hits"] = CS.RoutineHits;
    Snap.Counters["cache.routine-misses"] = CS.RoutineMisses;
  }
  {
    std::lock_guard<std::mutex> L(MetricsMu);
    Snap.addHistogram("server.latency_ns", Latency);
    Snap.addHistogram("server.queue_wait_ns", QueueWait);
  }
  return Snap;
}

int64_t CompileServer::counter(const std::string &Name) const {
  MetricsSnapshot Snap = metricsSnapshot();
  for (const StatsRegistry::Snapshot *Values : {&Snap.Counters, &Snap.Gauges})
    if (auto It = Values->find(Name); It != Values->end())
      return It->second;
  return 0;
}

int connectUnixSocket(const std::string &Path, std::string &Err) {
  struct sockaddr_un Addr;
  if (Path.empty() || Path.size() >= sizeof Addr.sun_path) {
    Err = "invalid socket path '" + Path + "'";
    return -1;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Err = strFormat("socket: %s", std::strerror(errno));
    return -1;
  }
  std::memset(&Addr, 0, sizeof Addr);
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof Addr.sun_path - 1);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof Addr) != 0) {
    Err = strFormat("connect '%s': %s", Path.c_str(), std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace gca
