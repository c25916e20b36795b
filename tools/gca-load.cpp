//===- tools/gca-load.cpp - Load generator for the compile server ---------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Replays a mix of compile requests against a running `gca-compile --serve`
// daemon at a chosen concurrency and request rate, then reports latency
// percentiles (p50/p95/p99) and verifies correctness: with --check, every
// response's output must be bitwise-identical to what this process computes
// locally through the very same pipeline — the server is a differential
// test target, and this tool is the prover.
//
//   $ gca-compile --serve=/tmp/gca.sock --cache &
//   $ gca-load --socket=/tmp/gca.sock --workloads --synth=400
//       --clients=8 --requests=200 --check --slo-p99=2000
//
// Exit status: 0 when every request succeeded and every SLO held; 1 on any
// correctness violation (output mismatch, unparseable response, missing
// overload when --expect-overloaded, failed recovery probe) or SLO miss;
// 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "driver/Serve.h"
#include "support/Frame.h"
#include "support/Http.h"
#include "support/Io.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace gca;

namespace {

struct LoadOptions {
  std::string SocketPath;
  int Clients = 1;
  int Requests = 0; ///< Total across all clients; 0 = one pass over inputs.
  double Rate = 0;  ///< Global requests/second cap; 0 = unpaced.
  bool Workloads = false;
  int SynthNests = 0;
  /// Number of distinct synthetic inputs (seeds 1..Count), each SynthNests
  /// nests, so a synth mix exercises the cache with more than one key.
  int SynthCount = 1;
  /// Differential check: compile every input locally and require the
  /// server's output bytes to match exactly.
  bool Check = false;
  double SloP50Ms = 0, SloP95Ms = 0, SloP99Ms = 0; ///< 0 = not enforced.
  /// Saturation mode: require at least one `overloaded` response, then
  /// prove recovery with a fresh probe request that must succeed.
  bool ExpectOverloaded = false;
  /// Treat `draining` responses as expected (drain-under-load tests).
  bool AllowDraining = false;
  bool ScrapeMetrics = false; ///< {"cmd":"metrics"} after the run.
  bool Drain = false;         ///< {"cmd":"drain"} after the run.
  /// --admin=HOST:PORT: scrape GET /metrics over HTTP after the run and
  /// require it to agree with the socket metrics command counter-for-
  /// counter (modulo families that legitimately move between the two
  /// scrapes: uptime, fault-injection, the admin plane's own counters).
  std::string AdminSpec;
};

struct LoadInput {
  CompileRequest Req;
  std::string Wire;     ///< Request payload (id patched per send).
  std::string Expected; ///< Local oracle output (--check only).
};

/// Per-client tallies, merged after the run.
struct ClientResult {
  Histogram Latency;
  int64_t Ok = 0, CompileErrors = 0, Overloaded = 0, Timeouts = 0,
          Draining = 0, Mismatches = 0, ProtocolErrors = 0,
          TraceIdErrors = 0;
};

/// Largest --clients count: one thread and connection each, like
/// gca-compile's --jobs cap.
constexpr unsigned kMaxClients = 1024;

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket=PATH [options] [files.hpf...]\n"
      "  --clients=N            concurrent client connections (default 1,\n"
      "                         at most 1024)\n"
      "  --requests=N           total requests, round-robin over the input\n"
      "                         mix (default: one pass over the inputs)\n"
      "  --rate=R               cap the global request rate at R req/s\n"
      "  --workloads            add every built-in workload to the mix\n"
      "  --synth=N              add a generated workload with N nests\n"
      "  --synth-count=K        K distinct synth inputs, seeds 1..K\n"
      "  --check                require responses bitwise-identical to a\n"
      "                         local compilation of the same request\n"
      "  --slo-p50=MS --slo-p95=MS --slo-p99=MS\n"
      "                         fail (exit 1) when a latency SLO is missed\n"
      "  --expect-overloaded    require >=1 'overloaded' response, then a\n"
      "                         successful recovery probe\n"
      "  --allow-draining       'draining' responses are expected, not "
      "errors\n"
      "  --metrics              scrape {\"cmd\":\"metrics\"} after the run\n"
      "  --drain                send {\"cmd\":\"drain\"} after the run\n"
      "  --admin=HOST:PORT      also scrape GET /metrics over HTTP and "
      "require\n"
      "                         it to agree with the socket metrics "
      "command\n"
      "                         on every counter (the socket path stays "
      "the\n"
      "                         fallback when --admin is not given)\n",
      Argv0);
  return 2;
}

/// One synchronous request/response exchange. Returns false on transport
/// failure; \p Resp holds the parsed response on success.
bool exchange(int Fd, const std::string &Payload, JsonValue &Resp,
              std::string &Err) {
  if (writeFrame(Fd, Payload) != FrameStatus::Ok) {
    Err = "request write failed";
    return false;
  }
  std::string Wire;
  FrameStatus FS = readFrame(Fd, Wire);
  if (FS != FrameStatus::Ok) {
    Err = strFormat("response read failed (%s)", frameStatusName(FS));
    return false;
  }
  if (!JsonValue::parse(Wire, Resp, Err)) {
    Err = "response is not valid JSON: " + Err;
    return false;
  }
  return true;
}

/// Builds the request payload for \p In with the sequence number as id,
/// plus the sending client's identity and a per-request trace id (both
/// omitted from the wire when empty).
std::string wireWithId(const LoadInput &In, int64_t Id,
                       const std::string &Client = std::string(),
                       const std::string &TraceId = std::string()) {
  CompileRequest Req = In.Req;
  Req.Id = Id;
  Req.Client = Client;
  Req.TraceId = TraceId;
  return buildCompileRequestJson(Req);
}

void clientLoop(const LoadOptions &Opts, const std::vector<LoadInput> &Inputs,
                int ClientIdx, int TotalRequests,
                std::chrono::steady_clock::time_point Epoch,
                ClientResult &Out) {
  std::string Err;
  int Fd = connectUnixSocket(Opts.SocketPath, Err);
  if (Fd < 0) {
    std::fprintf(stderr, "client %d: %s\n", ClientIdx, Err.c_str());
    Out.ProtocolErrors++;
    return;
  }
  // Client C owns requests C, C+Clients, C+2*Clients, ... of the global
  // sequence, so the input mix and ids are deterministic at any client
  // count.
  for (int Seq = ClientIdx; Seq < TotalRequests; Seq += Opts.Clients) {
    if (Opts.Rate > 0) {
      auto Target =
          Epoch + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(Seq / Opts.Rate));
      std::this_thread::sleep_until(Target);
    }
    const LoadInput &In = Inputs[Seq % Inputs.size()];
    // Every request carries the sending client's identity (the /statusz
    // per-client accounting key) and a deterministic trace id the server
    // must echo back verbatim.
    const std::string Client = "client-" + std::to_string(ClientIdx);
    const std::string TraceId = "load-" + std::to_string(Seq);
    std::string Payload = wireWithId(In, Seq, Client, TraceId);
    auto Start = std::chrono::steady_clock::now();
    JsonValue Resp;
    if (!exchange(Fd, Payload, Resp, Err)) {
      std::fprintf(stderr, "client %d: request %d: %s\n", ClientIdx, Seq,
                   Err.c_str());
      Out.ProtocolErrors++;
      break; // The connection is unusable; stop this client.
    }
    int64_t LatNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
    const JsonValue *Status = Resp.get("status");
    const JsonValue *Id = Resp.get("id");
    if (!Status || !Status->isString() || !Id || Id->intValue(-1) != Seq) {
      std::fprintf(stderr, "client %d: request %d: malformed response\n",
                   ClientIdx, Seq);
      Out.ProtocolErrors++;
      continue;
    }
    const JsonValue *Echo = Resp.get("trace_id");
    if (!Echo || !Echo->isString() || Echo->stringValue() != TraceId) {
      std::fprintf(stderr,
                   "client %d: request %d: trace_id not echoed (sent '%s')\n",
                   ClientIdx, Seq, TraceId.c_str());
      Out.TraceIdErrors++;
    }
    const std::string &S = Status->stringValue();
    if (S == "ok" || S == "error") {
      Out.Latency.record(LatNs);
      if (S == "error")
        Out.CompileErrors++;
      else
        Out.Ok++;
      if (Opts.Check) {
        const JsonValue *Output = Resp.get("output");
        if (!Output || !Output->isString() ||
            Output->stringValue() != In.Expected) {
          std::fprintf(stderr,
                       "client %d: request %d ('%s'): output differs from "
                       "local compilation\n",
                       ClientIdx, Seq, In.Req.Name.c_str());
          Out.Mismatches++;
        }
      }
    } else if (S == "overloaded") {
      Out.Overloaded++;
    } else if (S == "timeout") {
      Out.Timeouts++;
    } else if (S == "draining") {
      Out.Draining++;
    } else {
      std::fprintf(stderr, "client %d: request %d: unexpected status '%s'\n",
                   ClientIdx, Seq, S.c_str());
      Out.ProtocolErrors++;
    }
  }
  ::close(Fd);
}

/// Prometheus exposition lines that legitimately differ between two
/// scrapes taken moments apart: uptime advances, GCA_FAULT injects into the
/// scrapes' own I/O, the HTTP scrape bumps the admin plane's counters, and
/// connection teardown from the just-closed load clients races
/// connections-active.
bool lineIsVolatile(const std::string &Line) {
  for (const char *Needle :
       {"uptime", "io_faults", "gca_admin_", "connections_active"})
    if (Line.find(Needle) != std::string::npos)
      return true;
  return false;
}

std::vector<std::string> stableLines(const std::string &Text) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size();
    std::string Line = Text.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    if (!Line.empty() && !lineIsVolatile(Line))
      Out.push_back(std::move(Line));
  }
  return Out;
}

/// The --admin cross-check: the HTTP /metrics exposition must agree with
/// the socket {"cmd":"metrics","format":"prometheus"} response line for
/// line once volatile families are dropped. The socket scrape goes first
/// and its connection is held open across the HTTP scrape, so neither
/// scrape can shift the other's connection counters. \returns false (with
/// a diagnostic on stderr) on any disagreement or transport failure.
bool crossCheckAdminMetrics(const LoadOptions &Opts) {
  std::string Err;
  int Fd = connectUnixSocket(Opts.SocketPath, Err);
  if (Fd < 0) {
    std::fprintf(stderr, "admin cross-check: %s\n", Err.c_str());
    return false;
  }
  JsonValue Resp;
  bool Okay = exchange(
      Fd, "{\"cmd\":\"metrics\",\"format\":\"prometheus\"}", Resp, Err);
  std::string SocketText;
  if (Okay) {
    const JsonValue *M = Resp.get("metrics");
    if (M && M->isString())
      SocketText = M->stringValue();
    else {
      std::fprintf(stderr,
                   "admin cross-check: socket scrape returned no text\n");
      Okay = false;
    }
  } else {
    std::fprintf(stderr, "admin cross-check: %s\n", Err.c_str());
  }

  std::string HttpBody;
  if (Okay) {
    int HttpStatus = 0;
    if (!httpGet(Opts.AdminSpec, "/metrics", HttpStatus, HttpBody, Err)) {
      std::fprintf(stderr, "admin cross-check: GET /metrics: %s\n",
                   Err.c_str());
      Okay = false;
    } else if (HttpStatus != 200) {
      std::fprintf(stderr, "admin cross-check: GET /metrics returned %d\n",
                   HttpStatus);
      Okay = false;
    }
  }
  ::close(Fd);
  if (!Okay)
    return false;

  std::vector<std::string> SockLines = stableLines(SocketText);
  std::vector<std::string> HttpLines = stableLines(HttpBody);
  if (SockLines == HttpLines)
    return true;
  std::fprintf(stderr,
               "admin cross-check: /metrics disagrees with the socket "
               "scrape (%zu vs %zu stable lines)\n",
               HttpLines.size(), SockLines.size());
  size_t N = std::min(SockLines.size(), HttpLines.size());
  for (size_t I = 0; I != N; ++I)
    if (SockLines[I] != HttpLines[I]) {
      std::fprintf(stderr, "  first difference:\n    socket: %s\n    http:   %s\n",
                   SockLines[I].c_str(), HttpLines[I].c_str());
      break;
    }
  return false;
}

/// Sends one control command on a fresh connection; returns the response
/// object, or Null on failure.
JsonValue controlCommand(const LoadOptions &Opts, const std::string &Payload) {
  std::string Err;
  int Fd = connectUnixSocket(Opts.SocketPath, Err);
  if (Fd < 0) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return JsonValue::makeNull();
  }
  JsonValue Resp;
  bool Okay = exchange(Fd, Payload, Resp, Err);
  ::close(Fd);
  if (!Okay) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return JsonValue::makeNull();
  }
  return Resp;
}

} // namespace

int main(int argc, char **argv) {
  LoadOptions Opts;
  std::vector<std::string> Paths;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto CountAfter = [&](const char *Prefix, uint64_t Max, int &Out) {
      return parseCount(Arg.substr(std::strlen(Prefix)), 1, Max, Out);
    };
    if (Arg.rfind("--socket=", 0) == 0) {
      Opts.SocketPath = Arg.substr(std::strlen("--socket="));
    } else if (Arg.rfind("--clients=", 0) == 0) {
      if (!CountAfter("--clients=", kMaxClients, Opts.Clients))
        return usage(argv[0]);
    } else if (Arg.rfind("--requests=", 0) == 0) {
      if (!CountAfter("--requests=", INT_MAX, Opts.Requests))
        return usage(argv[0]);
    } else if (Arg.rfind("--rate=", 0) == 0) {
      Opts.Rate = std::strtod(Arg.c_str() + std::strlen("--rate="), nullptr);
      if (Opts.Rate <= 0)
        return usage(argv[0]);
    } else if (Arg == "--workloads") {
      Opts.Workloads = true;
    } else if (Arg.rfind("--synth=", 0) == 0) {
      if (!CountAfter("--synth=", INT_MAX, Opts.SynthNests))
        return usage(argv[0]);
    } else if (Arg.rfind("--synth-count=", 0) == 0) {
      if (!CountAfter("--synth-count=", INT_MAX, Opts.SynthCount))
        return usage(argv[0]);
    } else if (Arg == "--check") {
      Opts.Check = true;
    } else if (Arg.rfind("--slo-p50=", 0) == 0) {
      Opts.SloP50Ms = std::strtod(Arg.c_str() + 10, nullptr);
    } else if (Arg.rfind("--slo-p95=", 0) == 0) {
      Opts.SloP95Ms = std::strtod(Arg.c_str() + 10, nullptr);
    } else if (Arg.rfind("--slo-p99=", 0) == 0) {
      Opts.SloP99Ms = std::strtod(Arg.c_str() + 10, nullptr);
    } else if (Arg == "--expect-overloaded") {
      Opts.ExpectOverloaded = true;
    } else if (Arg == "--allow-draining") {
      Opts.AllowDraining = true;
    } else if (Arg == "--metrics") {
      Opts.ScrapeMetrics = true;
    } else if (Arg == "--drain") {
      Opts.Drain = true;
    } else if (Arg.rfind("--admin=", 0) == 0) {
      Opts.AdminSpec = Arg.substr(std::strlen("--admin="));
      if (Opts.AdminSpec.empty())
        return usage(argv[0]);
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      Paths.push_back(Arg);
    }
  }
  if (Opts.SocketPath.empty())
    return usage(argv[0]);

  // GCA_FAULT arms the fault injector on the client side too: the load
  // harness must survive short reads and EAGAIN storms on its own wire.
  FaultInjector::instance().configureFromEnv();

  // --- Assemble the input mix -------------------------------------------
  std::vector<LoadInput> Inputs;
  auto AddInput = [&](std::string Name, std::string Source) {
    LoadInput In;
    In.Req.Name = std::move(Name);
    In.Req.Source = std::move(Source);
    Inputs.push_back(std::move(In));
  };
  for (const std::string &Path : Paths) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    AddInput(Path, SS.str());
  }
  if (Opts.Workloads)
    for (const Workload *W : allWorkloads())
      AddInput(W->Name, W->Source);
  for (int K = 0; K < (Opts.SynthNests > 0 ? Opts.SynthCount : 0); ++K) {
    SynthSpec Spec;
    Spec.Nests = Opts.SynthNests;
    Spec.Seed = static_cast<uint64_t>(K + 1);
    AddInput(synthName(Spec), synthSource(Spec));
  }
  if (Inputs.empty()) {
    std::fprintf(stderr, "error: empty input mix (give files, --workloads, "
                         "or --synth=N)\n");
    return 2;
  }

  // --- Local oracle (once per distinct input, not per request) ----------
  if (Opts.Check)
    for (LoadInput &In : Inputs)
      In.Expected = runCompileRequest(In.Req, /*Cache=*/nullptr).Output;

  int TotalRequests =
      Opts.Requests > 0 ? Opts.Requests : static_cast<int>(Inputs.size());

  // --- Fire --------------------------------------------------------------
  std::vector<ClientResult> Results(static_cast<size_t>(Opts.Clients));
  std::vector<std::thread> Threads;
  auto Epoch = std::chrono::steady_clock::now();
  for (int C = 0; C < Opts.Clients; ++C)
    Threads.emplace_back([&, C] {
      clientLoop(Opts, Inputs, C, TotalRequests, Epoch, Results[C]);
    });
  for (std::thread &T : Threads)
    T.join();
  double WallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Epoch)
          .count();

  ClientResult Total;
  for (const ClientResult &R : Results) {
    Total.Latency.merge(R.Latency);
    Total.Ok += R.Ok;
    Total.CompileErrors += R.CompileErrors;
    Total.Overloaded += R.Overloaded;
    Total.Timeouts += R.Timeouts;
    Total.Draining += R.Draining;
    Total.Mismatches += R.Mismatches;
    Total.ProtocolErrors += R.ProtocolErrors;
    Total.TraceIdErrors += R.TraceIdErrors;
  }

  int Status = 0;
  auto Violate = [&](const char *Fmt, auto... Args) {
    std::fprintf(stderr, Fmt, Args...);
    Status = 1;
  };

  if (Total.ProtocolErrors)
    Violate("violation: %lld protocol errors\n",
            static_cast<long long>(Total.ProtocolErrors));
  if (Total.Mismatches)
    Violate("violation: %lld responses differed from local compilation\n",
            static_cast<long long>(Total.Mismatches));
  if (Total.Draining && !Opts.AllowDraining)
    Violate("violation: %lld unexpected 'draining' responses\n",
            static_cast<long long>(Total.Draining));
  if (Total.Overloaded && !Opts.ExpectOverloaded)
    Violate("violation: %lld unexpected 'overloaded' responses\n",
            static_cast<long long>(Total.Overloaded));
  if (Total.TraceIdErrors)
    Violate("violation: %lld trace_id echo failures\n",
            static_cast<long long>(Total.TraceIdErrors));

  // The HTTP admin plane must expose the same truth the socket does.
  if (!Opts.AdminSpec.empty() && !crossCheckAdminMetrics(Opts))
    Violate("violation: admin /metrics cross-check failed\n");

  if (Opts.ExpectOverloaded) {
    if (Total.Overloaded == 0)
      Violate("violation: saturation run saw no 'overloaded' response\n");
    // Recovery probe: after the burst the server must serve again.
    LoadInput &Probe = Inputs.front();
    JsonValue Resp = controlCommand(Opts, wireWithId(Probe, TotalRequests));
    const JsonValue *S = Resp.get("status");
    if (!S || !S->isString() ||
        !(S->stringValue() == "ok" || S->stringValue() == "error"))
      Violate("violation: recovery probe after saturation was not served\n");
  }

  // --- Latency SLOs ------------------------------------------------------
  double P50Ms = Total.Latency.quantile(0.50) / 1e6;
  double P95Ms = Total.Latency.quantile(0.95) / 1e6;
  double P99Ms = Total.Latency.quantile(0.99) / 1e6;
  auto CheckSlo = [&](const char *Name, double Got, double Limit) {
    if (Limit > 0 && Got > Limit)
      Violate("violation: %s %.3f ms exceeds SLO of %.3f ms\n", Name, Got,
              Limit);
  };
  CheckSlo("p50", P50Ms, Opts.SloP50Ms);
  CheckSlo("p95", P95Ms, Opts.SloP95Ms);
  CheckSlo("p99", P99Ms, Opts.SloP99Ms);

  // --- Report ------------------------------------------------------------
  JsonWriter W;
  W.beginObject();
  W.key("requests").value(static_cast<int64_t>(TotalRequests));
  W.key("clients").value(static_cast<int64_t>(Opts.Clients));
  W.key("inputs").value(static_cast<int64_t>(Inputs.size()));
  W.key("ok").value(Total.Ok);
  W.key("compile_errors").value(Total.CompileErrors);
  W.key("overloaded").value(Total.Overloaded);
  W.key("timeouts").value(Total.Timeouts);
  W.key("draining").value(Total.Draining);
  W.key("mismatches").value(Total.Mismatches);
  W.key("protocol_errors").value(Total.ProtocolErrors);
  W.key("trace_id_errors").value(Total.TraceIdErrors);
  W.key("checked").value(Opts.Check);
  W.key("wall_s").value(WallSec);
  W.key("throughput_rps")
      .value(WallSec > 0 ? (Total.Ok + Total.CompileErrors) / WallSec : 0);
  W.key("p50_ms").value(P50Ms, 3);
  W.key("p95_ms").value(P95Ms, 3);
  W.key("p99_ms").value(P99Ms, 3);
  W.key("latency_ns").raw(Total.Latency.json());
  W.key("slo_pass").value(Status == 0);
  W.endObject();

  if (std::fputs((W.str() + "\n").c_str(), stdout) < 0)
    Status = Status ? Status : 1;

  if (Opts.ScrapeMetrics) {
    JsonValue Resp = controlCommand(Opts, "{\"cmd\":\"metrics\"}");
    const JsonValue *S = Resp.get("status");
    if (!S || !S->isString() || S->stringValue() != "ok") {
      Violate("violation: metrics scrape failed\n");
    } else {
      // Re-render the metrics subtree so the scrape is one canonical JSON
      // document on its own line.
      const JsonValue *M = Resp.get("metrics");
      if (M && M->isObject()) {
        JsonWriter MW;
        std::function<void(const JsonValue &)> Emit =
            [&](const JsonValue &V) {
              switch (V.kind()) {
              case JsonValue::Kind::Null:
                MW.null();
                break;
              case JsonValue::Kind::Bool:
                MW.value(V.boolValue());
                break;
              case JsonValue::Kind::Number:
                if (V.isIntegral())
                  MW.value(V.intValue());
                else
                  MW.value(V.numberValue());
                break;
              case JsonValue::Kind::String:
                MW.value(V.stringValue());
                break;
              case JsonValue::Kind::Array:
                MW.beginArray();
                for (const JsonValue &E : V.array())
                  Emit(E);
                MW.endArray();
                break;
              case JsonValue::Kind::Object:
                MW.beginObject();
                for (const auto &[K, E] : V.members()) {
                  MW.key(K);
                  Emit(E);
                }
                MW.endObject();
                break;
              }
            };
        Emit(*M);
        if (std::fputs((MW.str() + "\n").c_str(), stdout) < 0)
          Status = Status ? Status : 1;
      } else {
        Violate("violation: metrics scrape returned no object\n");
      }
    }
  }

  if (Opts.Drain) {
    JsonValue Resp = controlCommand(Opts, "{\"cmd\":\"drain\"}");
    const JsonValue *S = Resp.get("status");
    if (!S || !S->isString() || S->stringValue() != "ok")
      Violate("violation: drain command failed\n");
  }

  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: write to stdout failed\n");
    Status = Status ? Status : 1;
  }
  return Status;
}
