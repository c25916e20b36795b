//===- tools/gca-compile.cpp - Parallel batch compilation driver ----------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Compiles many HPF-lite sources through the instrumented pass pipeline
// (driver/Pipeline.h), optionally in parallel. Each input gets its own
// Session — no shared mutable state — and outputs are emitted in input
// order, so a parallel run is bitwise-identical to a serial one (timing
// reports aside, which is why --verify-determinism compares only the
// deterministic sections).
//
//   $ gca-compile prog.hpf other.hpf        # plans to stdout
//   $ gca-compile --workloads --jobs 8      # all built-in workloads, 8 ways
//   $ gca-compile --stats --time-report x.hpf
//   $ gca-compile --time-report=json --workloads
//   $ gca-compile --dump-after=scalarize x.hpf
//   $ gca-compile --workloads --jobs 8 --verify-determinism
//   $ gca-compile --workloads --cache=/tmp/gca-cache --cache-stats
//
// With --cache, every compilation is keyed on its content (source bytes,
// normalized options, pass list, tool version) and replayed from the cache
// on a hit — bitwise-identical plans, diagnostics, dumps and counters, so
// cached and uncached runs produce the same deterministic output.
//
// Exit status: 0 on success, 1 on any compile error, translation-validation
// violation, or determinism mismatch, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "driver/CachedPipeline.h"
#include "driver/Pipeline.h"
#include "driver/Serve.h"
#include "runtime/Machine.h"
#include "support/Io.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace gca;

namespace {

struct ToolOptions {
  CompileOptions Compile;
  unsigned Jobs = 1;
  bool Stats = false;
  bool TimeReport = false;
  bool TimeReportJson = false;
  bool Workloads = false;
  bool VerifyDeterminism = false;
  bool PrintPlans = true;
  /// Append each routine's placement decision log to the deterministic
  /// output (requires uncached compilation: decision logs are not cached).
  bool DumpDecisions = false;
  /// Compile every input this many times; the deterministic output must be
  /// identical across repeats, and --time-report=json gains min/median wall
  /// time over the runs so bench numbers stop jittering.
  int Repeat = 1;
  /// --synth=N: also compile a generated workload with N statement nests.
  int SynthNests = 0;
  uint64_t SynthSeed = 1;
  /// Cache spec: empty = disabled, "mem" = memory tier only, anything else
  /// is the disk-tier directory (memory tier in front of it).
  std::string CacheSpec;
  bool CacheStats = false;
  size_t CacheBytes = 64ull << 20;
  /// Shared across the whole batch (ResultCache is thread-safe).
  ResultCache *Cache = nullptr;
  /// Chrome trace-event JSON output path; empty = tracing off.
  std::string TraceFile;
  /// Batch metrics snapshot: --metrics[=FILE], JSON by default.
  bool Metrics = false;
  std::string MetricsFile;
  bool MetricsPrometheus = false;
  /// Print the compile-latency histogram one-liner after the batch.
  bool HistogramReport = false;
  /// --serve=PATH|stdio: run as a long-lived compile server instead of a
  /// batch. PATH is a Unix socket; "stdio" frames over stdin/stdout.
  std::string ServeSpec;
  /// Compile workers for --serve (0 = hardware concurrency).
  unsigned ServeJobs = 0;
  /// Admission bound for --serve (requests admitted but not started).
  int QueueLimit = 64;
  /// Per-request deadline for --serve, seconds; 0 disables.
  double RequestTimeoutSec = 0;
  /// --admin=HOST:PORT: HTTP admin plane for --serve (metrics, healthz,
  /// readyz, statusz, tracez). Port 0 binds an ephemeral port, announced
  /// on stderr.
  std::string AdminSpec;
  /// --log=FILE|-: structured request log (one JSON line per request).
  std::string LogFile;
  /// --log-slow=MS: flag requests slower than MS in the log and pin them
  /// in /tracez.
  double LogSlowMs = 0;
};

struct Input {
  std::string Name;
  std::string Source;
};

/// Everything one compilation produced, split into the deterministic part
/// (compared by --verify-determinism) and the timing part (not compared).
struct Output {
  std::string Deterministic;
  std::string Timing;
  bool Failed = false;
  /// For the batch metrics snapshot: the session's counters, the wall time,
  /// and whether the result cache served this compilation.
  StatsRegistry::Snapshot Counters;
  double WallSec = 0;
  /// Wall time of the translation-validation pass (0 when off or replayed).
  double VerifyWallSec = 0;
  bool CacheHit = false;
};

/// One compilation of \p In. \p PrevWalls is non-null only on the last run
/// of a --repeat series: the wall times of the earlier runs, so the timing
/// report can include min/median over the whole series.
Output compileOneRun(const Input &In, const ToolOptions &Opts,
                     const std::vector<double> *PrevWalls) {
  Output Out;
  TraceSpan Span("compile", "driver", {{"input", In.Name}});
  auto Start = std::chrono::steady_clock::now();
  Session S(In.Source, Opts.Compile);
  bool CacheHit = false;
  if (Opts.Cache) {
    CachedPipeline CP(*Opts.Cache);
    CacheHit = CP.run(S);
  } else {
    S.run();
  }
  CompileResult R = S.take();
  double WallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Out.Counters = S.Stats.snapshot();
  Out.WallSec = WallSec;
  for (const PassRecord &P : S.Passes)
    if (P.Name == "verify")
      Out.VerifyWallSec = P.Time.WallSec;
  Out.CacheHit = CacheHit;

  // The compile server renders through the same function, which is what
  // makes its responses bitwise-identical to batch output.
  Out.Deterministic = renderCompileOutput(In.Name, S, R, Opts.PrintPlans,
                                          Opts.Stats, Opts.DumpDecisions);
  if (!R.Ok) {
    Out.Failed = true;
    return Out;
  }
  if (!R.VerifyOk)
    Out.Failed = true;

  // Min/median wall time over a --repeat series (this run included).
  double WallMin = WallSec, WallMedian = WallSec;
  if (PrevWalls && !PrevWalls->empty()) {
    std::vector<double> All = *PrevWalls;
    All.push_back(WallSec);
    std::sort(All.begin(), All.end());
    WallMin = All.front();
    size_t N = All.size();
    WallMedian =
        N % 2 ? All[N / 2] : (All[N / 2 - 1] + All[N / 2]) / 2;
  }

  if (Opts.TimeReportJson) {
    // JsonWriter escapes the input name — file names containing quotes or
    // backslashes must not corrupt the report document.
    JsonWriter W;
    W.beginObject();
    W.key("input").value(In.Name);
    if (Opts.Cache) {
      W.key("cache_hit").value(CacheHit);
      W.key("wall_s").value(WallSec);
    }
    if (Opts.Repeat > 1) {
      W.key("repeats").value(static_cast<int64_t>(Opts.Repeat));
      W.key("wall_min_s").value(WallMin);
      W.key("wall_median_s").value(WallMedian);
    }
    W.key("report").raw(S.timeReportJson());
    W.endObject();
    Out.Timing = W.str() + "\n";
  } else if (Opts.TimeReport) {
    Out.Timing = "-- time report: " + In.Name + " --\n";
    if (Opts.Cache)
      Out.Timing += strFormat("  cache %s, %.6f s wall\n",
                              CacheHit ? "hit" : "miss", WallSec);
    if (Opts.Repeat > 1)
      Out.Timing += strFormat("  repeats %d, min %.6f s, median %.6f s\n",
                              Opts.Repeat, WallMin, WallMedian);
    Out.Timing += S.timeReport();
  }
  return Out;
}

/// compileOneRun, --repeat times. Every repeat is a fresh Session; the
/// deterministic output must be identical across the series (plans must not
/// depend on run-to-run state), and the last run's timing report carries
/// min/median wall time over all runs.
Output compileOne(const Input &In, const ToolOptions &Opts) {
  int Repeat = Opts.Repeat < 1 ? 1 : Opts.Repeat;
  if (Repeat == 1)
    return compileOneRun(In, Opts, nullptr);
  std::vector<double> Walls;
  Output First;
  for (int Run = 0; Run != Repeat; ++Run) {
    bool Last = Run == Repeat - 1;
    Output Cur = compileOneRun(In, Opts, Last ? &Walls : nullptr);
    Walls.push_back(Cur.WallSec);
    if (Run == 0) {
      First = std::move(Cur);
      continue;
    }
    if (Cur.Deterministic != First.Deterministic) {
      std::fprintf(stderr,
                   "error: output for '%s' differs between repeat 1 and "
                   "repeat %d\n",
                   In.Name.c_str(), Run + 1);
      First.Failed = true;
    }
    if (Last) {
      // Keep the final run's timing/counters; report the series median as
      // the batch-level wall time so metrics aggregate stable numbers.
      First.Timing = std::move(Cur.Timing);
      First.Counters = std::move(Cur.Counters);
      First.VerifyWallSec = Cur.VerifyWallSec;
      First.CacheHit = Cur.CacheHit;
      std::vector<double> Sorted = Walls;
      std::sort(Sorted.begin(), Sorted.end());
      size_t N = Sorted.size();
      First.WallSec =
          N % 2 ? Sorted[N / 2] : (Sorted[N / 2 - 1] + Sorted[N / 2]) / 2;
    }
  }
  return First;
}

/// Compiles every input with \p Jobs workers; outputs land in input order.
std::vector<Output> compileAll(const std::vector<Input> &Inputs,
                               const ToolOptions &Opts, unsigned Jobs) {
  std::vector<Output> Outputs(Inputs.size());
  if (Jobs <= 1) {
    for (size_t I = 0; I != Inputs.size(); ++I)
      Outputs[I] = compileOne(Inputs[I], Opts);
    return Outputs;
  }
  ThreadPool Pool(Jobs);
  for (size_t I = 0; I != Inputs.size(); ++I)
    Pool.async([&Inputs, &Outputs, &Opts, I] {
      Outputs[I] = compileOne(Inputs[I], Opts);
    });
  Pool.wait();
  return Outputs;
}

/// Writes \p Doc to \p File ("" = stdout), checking every write: a full
/// disk or a closed pipe must become a nonzero exit, not silent data loss.
bool emitDoc(const std::string &Doc, const std::string &File) {
  if (File.empty()) {
    if (std::fputs(Doc.c_str(), stdout) < 0)
      return false;
    return std::fflush(stdout) == 0;
  }
  FILE *F = std::fopen(File.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fputs(Doc.c_str(), F) >= 0;
  if (std::fflush(F) != 0 || std::ferror(F))
    Ok = false;
  if (std::fclose(F) != 0)
    Ok = false;
  return Ok;
}

/// Self-pipe write end for the SIGTERM/SIGINT handler. The handler only
/// write()s (async-signal-safe); a watcher thread turns the byte into
/// CompileServer::requestDrain().
volatile int SignalPipeWrite = -1;

extern "C" void onDrainSignal(int) {
  char B = 'x';
  int Fd = SignalPipeWrite;
  if (Fd >= 0)
    (void)!::write(Fd, &B, 1);
}

/// `gca-compile --serve`: the long-lived compile service. Returns the
/// process exit status after a graceful drain.
int serveMain(const ToolOptions &Opts, ResultCache *Cache) {
  // GCA_FAULT arms the I/O fault injector (tests only): short reads/writes,
  // EAGAIN storms, and EINTR on the server's wire I/O.
  FaultInjector::instance().configureFromEnv();

  ServerConfig SC;
  bool Stdio = Opts.ServeSpec == "stdio" || Opts.ServeSpec == "-";
  if (!Stdio)
    SC.SocketPath = Opts.ServeSpec;
  SC.Jobs = Opts.ServeJobs;
  SC.QueueLimit = Opts.QueueLimit;
  SC.RequestTimeoutSec = Opts.RequestTimeoutSec;
  SC.Cache = Cache;
  SC.AdminSpec = Opts.AdminSpec;
  SC.SlowMs = Opts.LogSlowMs;

  // Request log: "-" is stdout, which in stdio mode carries response
  // frames, so the combination is a usage error, not silent corruption.
  FILE *LogStream = nullptr;
  bool CloseLog = false;
  if (!Opts.LogFile.empty()) {
    if (Opts.LogFile == "-") {
      if (Stdio) {
        std::fprintf(stderr, "error: --log=- is incompatible with "
                             "--serve=stdio (stdout carries frames)\n");
        return 2;
      }
      LogStream = stdout;
    } else {
      LogStream = std::fopen(Opts.LogFile.c_str(), "a");
      if (!LogStream) {
        std::fprintf(stderr, "error: cannot open log file '%s': %s\n",
                     Opts.LogFile.c_str(), std::strerror(errno));
        return 1;
      }
      CloseLog = true;
    }
  }
  SC.LogStream = LogStream;

  // --trace from a serving process: spans are tagged with request ids, so
  // the export attributes pipeline work to the requests that caused it.
  if (!Opts.TraceFile.empty()) {
    TraceCollector::instance().enable();
    TraceCollector::instance().setThreadName("main");
  }

  CompileServer Server(SC);

  if (!Opts.AdminSpec.empty()) {
    std::string Err;
    if (!Server.startAdmin(Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      if (CloseLog)
        std::fclose(LogStream);
      return 1;
    }
    // The resolved address matters with --admin=HOST:0; scripts parse this
    // line to find the ephemeral port.
    std::fprintf(stderr, "gca-compile: admin on %s\n",
                 Server.adminAddress().c_str());
  }

  int SigPipe[2];
  if (::pipe(SigPipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  SignalPipeWrite = SigPipe[1];
  struct sigaction SA;
  std::memset(&SA, 0, sizeof SA);
  SA.sa_handler = onDrainSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  // Response writes use MSG_NOSIGNAL on sockets; the stdio framing path
  // still needs SIGPIPE ignored so a vanished peer is a write error, not
  // sudden death.
  ::signal(SIGPIPE, SIG_IGN);
  std::thread Watcher([&Server, &SigPipe] {
    char B;
    if (ioReadFull(SigPipe[0], &B, 1) == IoStatus::Ok)
      Server.requestDrain();
  });

  int Status = 0;
  if (Stdio) {
    Server.serveConnection(/*InFd=*/0, /*OutFd=*/1);
    Server.requestDrain();
  } else {
    std::string Err;
    if (!Server.start(Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      Status = 1;
      Server.requestDrain();
    } else {
      std::fprintf(stderr,
                   "gca-compile: serving on %s (%lld workers, queue limit "
                   "%d)\n",
                   Opts.ServeSpec.c_str(),
                   static_cast<long long>(Server.counter("server.jobs")),
                   SC.QueueLimit);
    }
  }
  Server.wait();

  // Quiesce the signal path before tearing the self-pipe down.
  SA.sa_handler = SIG_DFL;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  SignalPipeWrite = -1;
  ::close(SigPipe[1]);
  Watcher.join();
  ::close(SigPipe[0]);

  if (Opts.Metrics) {
    MetricsSnapshot Snap = Server.metricsSnapshot();
    std::string Doc =
        Opts.MetricsPrometheus ? Snap.prometheus() : Snap.json() + "\n";
    if (!emitDoc(Doc, Opts.MetricsFile)) {
      std::fprintf(stderr, "error: cannot write metrics%s%s\n",
                   Opts.MetricsFile.empty() ? "" : " to ",
                   Opts.MetricsFile.c_str());
      Status = 1;
    }
  }
  // wait() joined every connection thread and drained the pool, so the
  // collector is quiescent and the export is safe.
  if (!Opts.TraceFile.empty() &&
      !TraceCollector::instance().writeChromeJson(Opts.TraceFile)) {
    std::fprintf(stderr, "error: cannot write '%s'\n",
                 Opts.TraceFile.c_str());
    Status = 1;
  }
  if (CloseLog && std::fclose(LogStream) != 0) {
    std::fprintf(stderr, "error: cannot write log file '%s'\n",
                 Opts.LogFile.c_str());
    Status = 1;
  }
  std::fprintf(stderr, "gca-compile: drained (%lld requests, %lld ok)\n",
               static_cast<long long>(Server.counter("server.requests")),
               static_cast<long long>(Server.counter("server.ok")));
  return Status;
}

/// Largest worker count --jobs and --serve-jobs accept.
constexpr unsigned kMaxJobs = 1024;

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] [files.hpf...]\n"
      "  --workloads            also compile every built-in workload\n"
      "  --synth=N              also compile a generated workload with N\n"
      "                         statement nests (deterministic from the "
      "seed)\n"
      "  --synth-seed=S         seed for --synth (default 1)\n"
      "  --repeat=N             compile each input N times; plans must be\n"
      "                         identical, timing reports gain min/median "
      "wall\n"
      "  --dump-decisions       append each routine's placement decision "
      "log\n"
      "                         (incompatible with --cache)\n"
      "  --jobs N, -j N         compile N inputs concurrently (default 1,\n"
      "                         at most 1024)\n"
      "  --stats                print the counter registry per input\n"
      "  --time-report[=json]   per-pass timing (and counter) report\n"
      "  --dump-after=PASS      dump program/plans after PASS of the "
      "pipeline\n"
      "                         (parse, scalarize, fuse, build-context,\n"
      "                         placement, lower, verify, lint) or 'all'\n"
      "  --strategy=NAME        orig|nored|comb|optimal|earlycomb\n"
      "  --machine=NAME         machine profile for collective lowering and\n"
      "                         simulation (default sp2; see "
      "--list-machines)\n"
      "  --list-machines        print the machine-profile registry and exit\n"
      "  --no-scalarize --fuse --lint --no-lint\n"
      "  --verify[=final|each|off]  translation validation: re-verify every\n"
      "                         plan with the independent availability\n"
      "                         dataflow ('each' adds structural IR checks\n"
      "                         after every pass); --no-verify disables\n"
      "  --defer-reductions --partial-redundancy\n"
      "  --no-plans             suppress plan printing\n"
      "  -p name=value          override a param declaration\n"
      "  --verify-determinism   recompile serially and require identical "
      "output\n"
      "  --cache[=DIR|mem]      replay identical compilations from a "
      "content-addressed\n"
      "                         cache (DIR adds a disk tier; default mem)\n"
      "  --no-cache             disable a previously-given --cache\n"
      "  --cache-bytes=N        memory-tier LRU byte budget (default 64 MiB)"
      "\n"
      "  --cache-stats          print cache hit/miss counters to stderr\n"
      "  --trace=FILE.json      write a Chrome trace-event file (load in\n"
      "                         Perfetto or chrome://tracing)\n"
      "  --metrics[=FILE]       write a batch metrics snapshot (stdout when\n"
      "                         FILE omitted)\n"
      "  --metrics-format=F     json (default) or prometheus\n"
      "  --histogram            print the compile-latency histogram\n"
      "  --serve=PATH|stdio|-   run as a compile server on a Unix socket\n"
      "                         (or framed over stdin/stdout); honors "
      "--cache,\n"
      "                         drains gracefully on SIGTERM/SIGINT, and "
      "with\n"
      "                         --metrics[=FILE] writes a final snapshot\n"
      "  --serve-jobs=N         compile workers for --serve (default or 0: "
      "all\n"
      "                         cores; at most 1024)\n"
      "  --queue-limit=N        admitted-but-unstarted bound; beyond it "
      "requests\n"
      "                         are answered 'overloaded' (default 64)\n"
      "  --request-timeout=S    answer 'timeout' when a request waits more "
      "than\n"
      "                         S seconds before dispatch (default: off)\n"
      "  --admin=HOST:PORT      HTTP admin plane for --serve: GET /metrics\n"
      "                         (Prometheus text), /healthz, /readyz (503 "
      "while\n"
      "                         draining), /statusz (queue, in-flight and "
      "per-client\n"
      "                         tables), /tracez (recent + slowest "
      "requests).\n"
      "                         PORT 0 binds an ephemeral port, announced "
      "on\n"
      "                         stderr as 'gca-compile: admin on "
      "HOST:PORT'\n"
      "  --log=FILE|-           one JSON line per request (ids, client, "
      "status,\n"
      "                         queue wait, wall, cache hit, bytes in/out)\n"
      "  --log-slow=MS          flag requests slower than MS ms as "
      "\"slow\":true\n"
      "                         and pin them in /tracez\n",
      Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  ToolOptions Opts;
  std::vector<Input> Inputs;
  std::vector<std::string> Paths;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--workloads") {
      Opts.Workloads = true;
    } else if (Arg.rfind("--synth=", 0) == 0) {
      if (!parseCount(Arg.substr(8), 1, INT_MAX, Opts.SynthNests))
        return usage(argv[0]);
    } else if (Arg.rfind("--synth-seed=", 0) == 0) {
      if (!parseCount(Arg.substr(13), 0, UINT64_MAX, Opts.SynthSeed))
        return usage(argv[0]);
    } else if (Arg.rfind("--repeat=", 0) == 0) {
      if (!parseCount(Arg.substr(9), 1, INT_MAX, Opts.Repeat))
        return usage(argv[0]);
    } else if (Arg == "--dump-decisions") {
      Opts.DumpDecisions = true;
    } else if (Arg == "--jobs" || Arg == "-j") {
      if (I + 1 >= argc || !parseCount(argv[++I], 0, kMaxJobs, Opts.Jobs))
        return usage(argv[0]);
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseCount(Arg.substr(7), 0, kMaxJobs, Opts.Jobs))
        return usage(argv[0]);
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg == "--time-report") {
      Opts.TimeReport = true;
    } else if (Arg == "--time-report=json") {
      Opts.TimeReportJson = true;
    } else if (Arg.rfind("--dump-after=", 0) == 0) {
      Opts.Compile.DumpAfter = Arg.substr(std::strlen("--dump-after="));
      if (!isDumpAfterName(Opts.Compile.DumpAfter))
        return usage(argv[0]);
    } else if (Arg.rfind("--strategy=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--strategy="));
      bool Found = false;
      for (Strategy S :
           {Strategy::Orig, Strategy::Earliest, Strategy::Global,
            Strategy::Optimal, Strategy::EarliestCombine})
        if (Name == strategyName(S)) {
          Opts.Compile.Placement.Strat = S;
          Found = true;
        }
      if (!Found) {
        std::fprintf(stderr, "error: unknown strategy '%s'\n", Name.c_str());
        return 2;
      }
    } else if (Arg == "--no-scalarize") {
      Opts.Compile.Scalarize = false;
    } else if (Arg == "--defer-reductions") {
      Opts.Compile.Placement.DeferReductions = true;
    } else if (Arg == "--partial-redundancy") {
      Opts.Compile.Placement.PartialRedundancy = true;
    } else if (Arg == "--fuse") {
      Opts.Compile.FuseLoops = true;
    } else if (Arg == "--lint") {
      Opts.Compile.Lint = true;
    } else if (Arg == "--no-lint") {
      Opts.Compile.Lint = false;
    } else if (Arg == "--verify" || Arg == "--verify=final") {
      Opts.Compile.Verify = VerifyMode::Final;
    } else if (Arg == "--verify=each") {
      Opts.Compile.Verify = VerifyMode::Each;
    } else if (Arg == "--verify=off" || Arg == "--no-verify") {
      Opts.Compile.Verify = VerifyMode::Off;
    } else if (Arg == "--no-plans") {
      Opts.PrintPlans = false;
    } else if (Arg == "--cache") {
      Opts.CacheSpec = "mem";
    } else if (Arg.rfind("--cache=", 0) == 0) {
      Opts.CacheSpec = Arg.substr(std::strlen("--cache="));
      if (Opts.CacheSpec.empty())
        return usage(argv[0]);
    } else if (Arg == "--no-cache") {
      Opts.CacheSpec.clear();
    } else if (Arg.rfind("--cache-bytes=", 0) == 0) {
      if (!parseCount(Arg.substr(std::strlen("--cache-bytes=")), 0, SIZE_MAX,
                      Opts.CacheBytes))
        return usage(argv[0]);
    } else if (Arg == "--cache-stats") {
      Opts.CacheStats = true;
    } else if (Arg == "--verify-determinism") {
      Opts.VerifyDeterminism = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Opts.TraceFile = Arg.substr(std::strlen("--trace="));
      if (Opts.TraceFile.empty())
        return usage(argv[0]);
    } else if (Arg == "--metrics") {
      Opts.Metrics = true;
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      Opts.Metrics = true;
      Opts.MetricsFile = Arg.substr(std::strlen("--metrics="));
    } else if (Arg.rfind("--metrics-format=", 0) == 0) {
      std::string F = Arg.substr(std::strlen("--metrics-format="));
      if (F == "prometheus")
        Opts.MetricsPrometheus = true;
      else if (F == "json")
        Opts.MetricsPrometheus = false;
      else
        return usage(argv[0]);
    } else if (Arg == "--histogram") {
      Opts.HistogramReport = true;
    } else if (Arg.rfind("--serve=", 0) == 0) {
      Opts.ServeSpec = Arg.substr(std::strlen("--serve="));
      if (Opts.ServeSpec.empty())
        return usage(argv[0]);
    } else if (Arg.rfind("--serve-jobs=", 0) == 0) {
      if (!parseCount(Arg.substr(std::strlen("--serve-jobs=")), 0, kMaxJobs,
                      Opts.ServeJobs))
        return usage(argv[0]);
    } else if (Arg.rfind("--queue-limit=", 0) == 0) {
      if (!parseCount(Arg.substr(std::strlen("--queue-limit=")), 0, INT_MAX,
                      Opts.QueueLimit))
        return usage(argv[0]);
    } else if (Arg.rfind("--request-timeout=", 0) == 0) {
      Opts.RequestTimeoutSec =
          std::strtod(Arg.c_str() + std::strlen("--request-timeout="),
                      nullptr);
      if (Opts.RequestTimeoutSec < 0)
        return usage(argv[0]);
    } else if (Arg.rfind("--admin=", 0) == 0) {
      Opts.AdminSpec = Arg.substr(std::strlen("--admin="));
      if (Opts.AdminSpec.empty())
        return usage(argv[0]);
    } else if (Arg.rfind("--log=", 0) == 0) {
      Opts.LogFile = Arg.substr(std::strlen("--log="));
      if (Opts.LogFile.empty())
        return usage(argv[0]);
    } else if (Arg.rfind("--log-slow=", 0) == 0) {
      Opts.LogSlowMs =
          std::strtod(Arg.c_str() + std::strlen("--log-slow="), nullptr);
      if (Opts.LogSlowMs <= 0)
        return usage(argv[0]);
    } else if (Arg.rfind("--machine=", 0) == 0) {
      Opts.Compile.Machine = Arg.substr(std::strlen("--machine="));
      if (Opts.Compile.Machine.empty())
        return usage(argv[0]);
    } else if (Arg == "--list-machines") {
      for (const std::string &Name : MachineProfile::listProfiles())
        std::printf("%s\n", Name.c_str());
      return 0;
    } else if (Arg == "-p") {
      const char *Eq = I + 1 < argc ? std::strchr(argv[I + 1], '=') : nullptr;
      int64_t Value = 0;
      if (!Eq || !parseInt64(Eq + 1, Value))
        return usage(argv[0]);
      Opts.Compile.Params[std::string(argv[I + 1], Eq - argv[I + 1])] = Value;
      ++I;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      Paths.push_back(Arg);
    }
  }

  for (const std::string &Path : Paths) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Inputs.push_back({Path, SS.str()});
  }
  if (Opts.Workloads)
    for (const Workload *W : allWorkloads())
      Inputs.push_back({W->Name, W->Source});
  if (Opts.SynthNests > 0) {
    SynthSpec Spec;
    Spec.Nests = Opts.SynthNests;
    Spec.Seed = Opts.SynthSeed;
    Inputs.push_back({synthName(Spec), synthSource(Spec)});
  }
  if (!Opts.ServeSpec.empty() && !Inputs.empty()) {
    std::fprintf(stderr, "error: --serve takes no inputs (clients send "
                         "sources over the wire)\n");
    return 2;
  }
  if (Opts.ServeSpec.empty() &&
      (!Opts.AdminSpec.empty() || !Opts.LogFile.empty() ||
       Opts.LogSlowMs > 0)) {
    std::fprintf(stderr, "error: --admin, --log, and --log-slow require "
                         "--serve\n");
    return 2;
  }
  if (Inputs.empty() && Opts.ServeSpec.empty())
    return usage(argv[0]);

  if (Opts.DumpDecisions && !Opts.CacheSpec.empty()) {
    std::fprintf(stderr, "error: --dump-decisions requires uncached "
                         "compilation (decision logs are not cached)\n");
    return 2;
  }

  std::unique_ptr<ResultCache> Cache;
  if (!Opts.CacheSpec.empty()) {
    ResultCache::Config C;
    C.MemBudgetBytes = Opts.CacheBytes;
    if (Opts.CacheSpec != "mem")
      C.Dir = Opts.CacheSpec;
    Cache = std::make_unique<ResultCache>(std::move(C));
    Opts.Cache = Cache.get();
  }

  if (!Opts.ServeSpec.empty())
    return serveMain(Opts, Cache.get());

  if (!Opts.TraceFile.empty()) {
    TraceCollector::instance().enable();
    TraceCollector::instance().setThreadName("main");
  }

  std::vector<Output> Outputs = compileAll(Inputs, Opts, Opts.Jobs);

  int Status = 0;
  for (const Output &O : Outputs) {
    std::fputs(O.Deterministic.c_str(), stdout);
    std::fputs(O.Timing.c_str(), stdout);
    if (O.Failed)
      Status = 1;
  }
  if (Cache && Opts.TimeReportJson)
    std::fprintf(stdout, "{\"cache\":%s}\n", Cache->stats().json().c_str());
  if (Cache && Opts.CacheStats)
    std::fprintf(stderr, "%s\n", Cache->stats().str().c_str());

  if (Opts.Metrics || Opts.HistogramReport) {
    // The batch snapshot: session counters summed over all inputs, the
    // driver's own counters, cache counters, and the latency histogram.
    MetricsSnapshot Snap;
    Histogram Wall, VerifyWall;
    int64_t Failures = 0, CacheHits = 0;
    for (const Output &O : Outputs) {
      for (const auto &[Name, Value] : O.Counters)
        Snap.Counters[Name] += Value;
      Wall.record(static_cast<int64_t>(O.WallSec * 1e9));
      if (Opts.Compile.Verify != VerifyMode::Off)
        VerifyWall.record(static_cast<int64_t>(O.VerifyWallSec * 1e9));
      Failures += O.Failed;
      CacheHits += O.CacheHit;
    }
    Snap.Counters["driver.inputs"] = static_cast<int64_t>(Inputs.size());
    Snap.Counters["driver.failures"] = Failures;
    Snap.Counters["driver.jobs"] = Opts.Jobs;
    if (Cache) {
      CacheStats CS = Cache->stats();
      Snap.Counters["driver.cache-hits"] = CacheHits;
      Snap.Counters["cache.hits"] = CS.Hits;
      Snap.Counters["cache.misses"] = CS.Misses;
      Snap.Counters["cache.evictions"] = CS.Evictions;
      Snap.Counters["cache.disk-hits"] = CS.DiskHits;
      Snap.Counters["cache.disk-errors"] = CS.DiskErrors;
      Snap.Counters["cache.routine-hits"] = CS.RoutineHits;
      Snap.Counters["cache.routine-misses"] = CS.RoutineMisses;
    }
    Snap.addHistogram("compile.wall_ns", Wall);
    if (Opts.Compile.Verify != VerifyMode::Off)
      Snap.addHistogram("verify.wall_ns", VerifyWall);
    if (Opts.HistogramReport)
      std::fprintf(stdout, "compile.wall_ns: %s\n", Wall.str().c_str());
    if (Opts.Metrics) {
      std::string Doc =
          Opts.MetricsPrometheus ? Snap.prometheus() : Snap.json() + "\n";
      if (!emitDoc(Doc, Opts.MetricsFile)) {
        std::fprintf(stderr, "error: cannot write metrics%s%s\n",
                     Opts.MetricsFile.empty() ? "" : " to ",
                     Opts.MetricsFile.c_str());
        Status = 1;
      }
    }
  }

  if (Opts.VerifyDeterminism) {
    std::vector<Output> Serial = compileAll(Inputs, Opts, 1);
    for (size_t I = 0; I != Outputs.size(); ++I)
      if (Serial[I].Deterministic != Outputs[I].Deterministic) {
        std::fprintf(stderr,
                     "error: nondeterministic output for '%s' "
                     "(--jobs %u vs serial)\n",
                     Inputs[I].Name.c_str(), Opts.Jobs);
        Status = 1;
      }
    if (Status == 0)
      std::fprintf(stderr,
                   "determinism verified: %zu inputs, %u jobs vs serial\n",
                   Inputs.size(), Opts.Jobs);
  }

  // Workers are joined (compileAll waits on the pool), so the collector is
  // quiescent and the export is safe.
  if (!Opts.TraceFile.empty() &&
      !TraceCollector::instance().writeChromeJson(Opts.TraceFile)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Opts.TraceFile.c_str());
    Status = 1;
  }
  // ferror is sticky, so this catches every unchecked fputs above: plans
  // sent into a full disk or closed pipe must fail the run, not vanish.
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: write to stdout failed: %s\n",
                 std::strerror(errno));
    if (Status == 0)
      Status = 1;
  }
  return Status;
}
