//===- perfbench/harness/Bench.h - Shared benchmark plumbing ----*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the benchmark harness: exact-percentile sample sets, the
/// result report, the in-memory span recorder of the traced run, seeded
/// input generators, the compile-daemon child process, and the workload
/// entry points. perfbench/README.md says what each workload measures and
/// why.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "driver/Compile.h"
#include "driver/Serve.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// SplitMix64: every generated input is a pure function of the seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ull + 7) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int range(int Lo, int Hi) { // Inclusive.
    return Lo + static_cast<int>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }

private:
  uint64_t State;
};

/// Raw samples with exact order statistics (no bucketing).
class Samples {
public:
  void add(double X) { V.push_back(X); }
  size_t size() const { return V.size(); }
  /// Linear interpolation between closest ranks (0 <= Q <= 1); 0 if empty.
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
  double sum() const;
  /// The mean of the values left when the floor(Cut * size()) smallest and
  /// as many largest are dropped; 0 if empty.
  double trimmedMean(double Cut) const;
  /// The highest level up to 0.99 that has at least ten samples beyond it,
  /// never below the median. It depends only on the sample count, which
  /// every workload fixes.
  double tailLevel() const;

private:
  std::vector<double> V;
};

/// "p50", "p99", "p73.7": the label of a quantile level.
std::string levelName(double Q);

/// Host-speed calibration. The shared hosts this benchmark runs on change
/// speed by up to 2x over minutes (perfbench/README.md, "Host-speed
/// scaling"), more than any bound a comparison of runs could use. The probe
/// times a fixed kernel of the harness's own, which runs no gcomm code and
/// allocates from a buffer of its own, between the measured operations of a
/// run. Every end-to-end timing is reported at the host speed at which that
/// kernel takes kProbeRefMs: durations are multiplied by scale() and rates
/// divided by it. No change to gcomm can move the kernel, so a change moves
/// a scaled timing by the same share as the raw one.
///
/// The kernel's times are bimodal on such a host (a fast and a slow state
/// that alternate), so the scale uses a trimmed mean, which follows the
/// share of slow runs smoothly, not a median, which jumps between the modes.
constexpr double kProbeRefMs = 0.5;
class SpeedProbe {
public:
  SpeedProbe();
  /// Runs the kernel once to warm the caches the measured operations left
  /// cold, then times it \p Reps times. Returns the scale of these runs
  /// alone, for an operation that takes place just after them.
  double sample(int Reps);
  /// kProbeRefMs over the trimmed mean kernel time of the run so far.
  double scale() const { return kProbeRefMs / Kernel.trimmedMean(0.1); }
  /// Prints the kernel's median, quartiles and checksum, and the scale.
  void print() const;

private:
  std::vector<std::byte> Arena;
  Samples Kernel;
  uint64_t Checksum = 0;
};

/// Set-up times in seconds, each as measured and scaled by the probe runs
/// just before it: a set-up is short, so the host speed next to it is the
/// one that counts.
struct SetupTimes {
  Samples Raw, Scaled;
  void add(double Sec, double Scale) {
    Raw.add(Sec);
    Scaled.add(Sec * Scale);
  }
};

/// The result of one run: named metrics plus operation accounting.
/// Attempted counts every timed operation and every output check; Failed
/// counts those that failed.
struct Report {
  struct Metric {
    std::string Name;
    double Value = 0;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  int64_t Attempted = 0;
  int64_t Failed = 0;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Counts one attempted operation or check; a false \p Ok also counts it
  /// failed and prints \p Why (the first few only).
  void check(bool Ok, const std::string &Why);
  /// Adds \p Value, a timing scaled to the speed probe's reference speed
  /// (see SpeedProbe), and prints it with \p Unscaled, the value measured.
  void addScaled(const std::string &Name, double Value, double Unscaled,
                 const std::string &Unit);
  /// Adds setup_s, the median set-up time.
  void addSetup(const SetupTimes &S) {
    addScaled("setup_s", S.Scaled.median(), S.Raw.median(), "s");
  }
  /// Adds latency_ms.p50 and latency_ms.tail from raw samples, scaled by
  /// \p Factor, and prints the tail's level and the sample count.
  void addLatency(const std::string &What, const Samples &S, double Factor);
  /// The final line of standard output: the result document.
  void print() const;
};

//===----------------------------------------------------------------------===//
// Traced run: spans recorded in memory, summarized once at exit
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name = nullptr;
  double StartMs = 0, EndMs = 0;
  int Parent = -1;
  int64_t Op = -1; ///< The operation (request) the span belongs to.
};

class Tracer {
public:
  int begin(const char *Name, int64_t Op);
  void end(int Id);
  const std::vector<Span> &spans() const { return Spans; }
  /// Every span ended, in LIFO order.
  bool balanced() const { return Stack.empty() && !Misnested; }
  /// Summed duration (ms) of the spans named \p Name, per operation.
  std::map<int64_t, double> perOp(const std::string &Name) const;
  /// Median over operations of perOp(Name); 0 when never recorded.
  double medianPerOp(const std::string &Name) const;
  /// Summed duration of every span named \p Name, and the part of it no
  /// child span covers.
  double totalMs(const std::string &Name) const;
  double selfMs(const std::string &Name) const;

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
  bool Misnested = false;
};

/// The tracer of the traced run; null in untraced runs, where a ScopedSpan
/// costs one branch.
extern Tracer *ActiveTracer;

class ScopedSpan {
public:
  ScopedSpan(const char *Name, int64_t Op)
      : Id(ActiveTracer ? ActiveTracer->begin(Name, Op) : -1) {}
  ~ScopedSpan() {
    if (Id >= 0)
      ActiveTracer->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  int Id;
};

//===----------------------------------------------------------------------===//
// Options and inputs
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// Scales each workload's fixed operation counts; the counts never depend
  /// on how fast the code runs.
  int Seconds = 20;
  bool Trace = false;
  std::string DaemonPath; ///< The gca-compile binary to boot as a daemon.
  std::string OutDir;     ///< Sockets and daemon logs go here.
};

/// One compile the batch workloads (and the traced replays) issue.
struct CompileOp {
  std::string Name;
  std::string Source;
  gca::CompileOptions Opts;
  /// The same program at half its size, for the placement doubling ratio.
  std::string HalfSource;
  gca::CompileOptions HalfOpts;
};

/// compile-large: the \p Index-th seeded single-routine synth program.
constexpr int kCompileLargeNests = 2000;
CompileOp compileLargeOp(uint64_t Seed, int Index);

/// One paper-fig10 compile: a Figure 10 program at one panel point under
/// one strategy.
struct Fig10Point {
  const gca::Workload *W = nullptr;
  char Panel = 'a';
  int64_t N = 0;
  gca::Strategy Strat = gca::Strategy::Global;
  CompileOp Op;
};
/// Every panel point of Figure 10 (a)-(f) under orig, nored and comb; the
/// seed only permutes the order.
std::vector<Fig10Point> fig10Points(uint64_t Seed);

/// serve-edit inputs: a project of multi-routine files and a request stream
/// over it.
enum class ReqKind : uint8_t { Resubmit, Edit, NewFile };
struct ServeRequest {
  int File = 0;
  ReqKind Kind = ReqKind::Resubmit;
  uint64_t FileSeed = 0; ///< Seed the file's current routines grew from.
  std::string Source;
  double DueSec = 0; ///< Offset from the start of the open loop.
};
struct ServeStream {
  std::vector<std::string> FileNames;
  std::vector<std::string> InitialFiles;
  /// The open-loop requests at the nominal rate, then the closed-loop
  /// saturation requests (DueSec unused).
  std::vector<ServeRequest> Nominal, Saturation;
};
constexpr int kServeFiles = 8;
constexpr int kRoutinesPerFile = 8;
constexpr int kNestsPerRoutine = 150;
/// Requests per second of the open loop, and the saturation requests per
/// second of run length. The open loop runs at no more than half the
/// saturation throughput measured on a 4-core host (perfbench/README.md).
constexpr double kServeNominalRate = 30;
constexpr int kServeSaturationPerSecond = 10;
ServeStream serveEditStream(uint64_t Seed, int NominalCount,
                            int SaturationCount);
/// One project file: \p Routines routine blocks whose bodies are synth
/// programs of \p Nests nests, seeded from \p FileSeed.
std::string serveFileSource(uint64_t FileSeed, int Routines, int Nests);

//===----------------------------------------------------------------------===//
// Compile daemon
//===----------------------------------------------------------------------===//

/// A `gca-compile --serve=SOCK --cache` child process.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns the daemon (logging one line per request to \p LogPath when
  /// non-empty) and waits until it answers a ping.
  bool start(const Options &O, const std::string &Tag,
             const std::string &LogPath, std::string &Err);
  /// Drains with SIGTERM and reaps the process (SIGKILL after a grace
  /// period). Idempotent.
  void stop();
  int pid() const { return Pid; }
  const std::string &socket() const { return Sock; }

private:
  int Pid = -1;
  std::string Sock;
};

/// A decoded compile response.
struct Response {
  int64_t Id = -1;
  std::string Status;
  std::string Output;
  double WallSec = 0;
  size_t Bytes = 0; ///< Frame payload size.
};

//===----------------------------------------------------------------------===//
// Workloads, layers and output checks
//===----------------------------------------------------------------------===//

void runCompileLarge(const Options &O, Report &R);
void runPaperFig10(const Options &O, Report &R);
void runServeEdit(const Options &O, Report &R);

/// The traced run every workload shares. Each of \p Ops goes once through
/// every layer's public entry points under spans; \p Replay goes through an
/// in-process cached request path and then, one request at a time, through
/// a compile daemon. Prints the tracing overhead and adds every per-layer
/// metric to \p R.
void runLayerSweep(const Options &O, const std::vector<CompileOp> &Ops,
                   const std::vector<CompileOp> &Replay, Report &R);

/// Sends \p Reqs one at a time over one connection to \p D: a closed loop
/// whose next request is due when the previous response arrives. Fills one
/// response, one latency (send to response) and one lateness (due to send)
/// per request; false with \p Err on transport failure.
bool sendSequential(const Daemon &D,
                    const std::vector<gca::CompileRequest> &Reqs,
                    std::vector<Response> &Out, std::vector<double> &LatencyMs,
                    std::vector<double> &LateMs, std::string &Err);

/// Peak resident set (VmHWM) of process \p Pid (0 = this process), in MiB.
double peakRssMb(int Pid = 0);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &V);

/// Output-quality totals of one compile: static call sites (groups) over
/// every routine, the modeled communication time (ms) of one simulated
/// execution firing the lowered collectives, and the verifyPlan violations.
/// `avail-redundancy` violations are counted apart: at the commit that
/// introduced this benchmark about one 2000-nest synth program in fifteen
/// has one, a group placed past an entry's Latest point that the plan
/// audit flags too (perfbench/README.md), so they are reported, not failed.
struct PlanQuality {
  int Groups = 0;
  double CommMs = 0;
  size_t Violations = 0;
  size_t RedundancyDefects = 0;
};
PlanQuality planQuality(const gca::CompileResult &R,
                        const gca::CompileOptions &Opts);
/// Counts a check that \p Q has no violations, and prints any
/// avail-redundancy defects of \p What.
void checkPlans(Report &R, const std::string &What, const PlanQuality &Q);

} // namespace pb

#endif // PERFBENCH_BENCH_H
