//===- perfbench/harness/Batch.cpp - Closed-loop compile workloads --------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// compile-large and paper-fig10: one client compiles one program after
// another through compileSource. Also the traced layer sweep every workload
// shares, which calls each layer's public entry point under its own span.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/AvailDataflow.h"
#include "core/Detect.h"
#include "core/EarliestLatest.h"
#include "driver/CachedPipeline.h"
#include "lower/Schedule.h"
#include "runtime/Machine.h"
#include "runtime/Simulate.h"
#include "support/ResultCache.h"
#include "support/StrUtil.h"
#include "xform/Scalarize.h"

#include <array>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <tuple>

using namespace gca;

namespace pb {

namespace {

/// compile-large's traced run: programs through every layer.
constexpr int kTracedCompileLarge = 4;

template <typename F> auto timed(const char *Name, int64_t Op, F &&Fn) {
  ScopedSpan S(Name, Op);
  return Fn();
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// CPU time of the calling thread, in ms: printed next to the wall times
/// so a reader can tell a slow host from a slow compiler.
double threadCpuMs() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) * 1e3 +
         static_cast<double>(Ts.tv_nsec) / 1e6;
}

/// The end-to-end metrics both closed-loop workloads share; the compile
/// timings are scaled by the whole run's probe.
void finishBatch(Report &R, const SpeedProbe &Probe, const SetupTimes &Setup,
                 const Samples &Latency, const Samples &Cpu, int Groups,
                 const std::vector<double> &CommMs) {
  Probe.print();
  const double Scale = Probe.scale();
  R.addSetup(Setup);
  R.addLatency("compile", Latency, Scale);
  std::printf("compile thread CPU time: p50 %.3f ms (unscaled)\n",
              Cpu.median());
  const double Rate =
      1e3 * static_cast<double>(Latency.size()) / Latency.sum();
  R.addScaled("max_rate_ops", Rate / Scale, Rate, "op/s");
  R.add("peak_rss_mb", peakRssMb(), "MiB");
  R.add("static_messages", Groups, "count");
  R.add("modeled_comm", geomean(CommMs), "sim-ms");
}

/// Every span the layer sweep records; the run fails if one is missing.
const char *const kLayerSpans[] = {
    "frontend.parse", "xform.scalarize", "cfg.build",      "cfg.domtree",
    "ssa.build",      "core.context",    "core.detect",    "core.range",
    "core.earliest",  "core.place",      "core.place_half", "lower.lower",
    "lower.schedule", "runtime.simulate", "analysis.audit", "analysis.verify",
    "driver.request", "driver.slice",    "driver.cached_run", "driver.render"};

} // namespace

void runCompileLarge(const Options &O, Report &R) {
  if (O.Trace) {
    std::vector<CompileOp> Ops;
    for (int I = 0; I != kTracedCompileLarge; ++I)
      Ops.push_back(compileLargeOp(O.Seed, I));
    // Each program twice: a cold request, then a resubmission.
    std::vector<CompileOp> Replay = Ops;
    Replay.insert(Replay.end(), Ops.begin(), Ops.end());
    runLayerSweep(O, Ops, Replay, R);
    return;
  }

  // About one compile per second of run length, each after a few runs of
  // the speed probe.
  const int Count = O.Seconds;
  SpeedProbe Probe;
  SetupTimes Setup;
  for (int I = 0; I != 3; ++I) {
    // Warm-up programs the timed loop never sees.
    const CompileOp Op = compileLargeOp(O.Seed, Count + I);
    const double Scale = Probe.sample(4);
    const Clock::time_point T0 = Clock::now();
    const CompileResult Res = compileSource(Op.Source, Op.Opts);
    Setup.add(secondsSince(T0), Scale);
    R.check(Res.Ok, Op.Name + ": " + Res.Errors);
  }

  Samples Latency, Cpu;
  int Groups = 0;
  std::vector<double> CommMs;
  for (int I = 0; I != Count; ++I) {
    const CompileOp Op = compileLargeOp(O.Seed, I);
    Probe.sample(4);
    const double Cpu0 = threadCpuMs();
    const Clock::time_point T0 = Clock::now();
    const CompileResult Res = compileSource(Op.Source, Op.Opts);
    Latency.add(msBetween(T0, Clock::now()));
    Cpu.add(threadCpuMs() - Cpu0);
    R.check(Res.Ok, Op.Name + ": " + Res.Errors);
    if (!Res.Ok)
      continue;
    // Output checks and quality, outside the timed call.
    const PlanQuality Q = planQuality(Res, Op.Opts);
    checkPlans(R, Op.Name, Q);
    Groups += Q.Groups;
    CommMs.push_back(Q.CommMs);
  }
  finishBatch(R, Probe, Setup, Latency, Cpu, Groups, CommMs);
}

void runPaperFig10(const Options &O, Report &R) {
  const std::vector<Fig10Point> Points = fig10Points(O.Seed);
  if (O.Trace) {
    std::vector<CompileOp> Ops;
    for (const Fig10Point &P : Points)
      Ops.push_back(P.Op);
    std::vector<CompileOp> Replay = Ops;
    Replay.insert(Replay.end(), Ops.begin(), Ops.end());
    runLayerSweep(O, Ops, Replay, R);
    return;
  }

  // Five warm-up passes over every point; a pass takes about 0.1 s.
  SpeedProbe Probe;
  SetupTimes Setup;
  for (int I = 0; I != 5; ++I) {
    const double Scale = Probe.sample(4);
    const Clock::time_point T0 = Clock::now();
    for (const Fig10Point &P : Points)
      R.check(compileSource(P.Op.Source, P.Op.Opts).Ok, P.Op.Name);
    Setup.add(secondsSince(T0), Scale);
  }

  // About twelve passes over the 114 points per second of run length, each
  // after a run of the speed probe.
  Samples Latency, Cpu;
  for (int Pass = 0; Pass != 12 * O.Seconds; ++Pass) {
    Probe.sample(1);
    for (const Fig10Point &P : Points) {
      const double Cpu0 = threadCpuMs();
      const Clock::time_point T0 = Clock::now();
      const CompileResult Res = compileSource(P.Op.Source, P.Op.Opts);
      Latency.add(msBetween(T0, Clock::now()));
      Cpu.add(threadCpuMs() - Cpu0);
      R.check(Res.Ok, P.Op.Name + ": " + Res.Errors);
    }
  }

  // Output checks: every plan verifies, each of the seven Figure 10 table
  // rows matches the paper at every point, and comb <= nored <= orig.
  int Groups = 0;
  std::vector<double> CommMs;
  std::map<std::pair<char, int64_t>, std::array<int, 3>> Totals;
  for (const Fig10Point &P : Points) {
    const CompileResult Res = compileSource(P.Op.Source, P.Op.Opts);
    R.check(Res.Ok, P.Op.Name + ": " + Res.Errors);
    if (!Res.Ok)
      continue;
    const PlanQuality Q = planQuality(Res, P.Op.Opts);
    checkPlans(R, P.Op.Name, Q);
    const int S = static_cast<int>(P.Strat == Strategy::Orig       ? 0
                                   : P.Strat == Strategy::Earliest ? 1
                                                                   : 2);
    Totals[{P.Panel, P.N}][static_cast<size_t>(S)] = Q.Groups;
    if (P.Strat == Strategy::Global) {
      Groups += Q.Groups;
      CommMs.push_back(Q.CommMs);
    }
    for (const ExpectedCounts &E : P.W->Expected) {
      const RoutineResult *RR = Res.find(E.Routine);
      const int Want = S == 0 ? E.Orig : S == 1 ? E.Nored : E.Comb;
      const int Got = RR ? RR->Plan.Stats.groups(E.Kind == "SUM"
                                                    ? CommKind::Reduce
                                                    : CommKind::Shift)
                         : -1;
      R.check(Got == Want, strFormat("%s: %s %s has %d sites, paper %d",
                                     P.Op.Name.c_str(), E.Routine.c_str(),
                                     E.Kind.c_str(), Got, Want));
    }
  }
  for (const auto &[Key, T] : Totals)
    R.check(T[2] <= T[1] && T[1] <= T[0],
            strFormat("panel %c n=%lld: comb %d, nored %d, orig %d",
                      Key.first, static_cast<long long>(Key.second), T[2],
                      T[1], T[0]));
  finishBatch(R, Probe, Setup, Latency, Cpu, Groups, CommMs);
}

void runLayerSweep(const Options &O, const std::vector<CompileOp> &Ops,
                   const std::vector<CompileOp> &Replay, Report &R) {
  /// One compile, layer by layer: the passes compileSource runs in Release.
  struct Layered {
    DiagEngine Diags;
    std::unique_ptr<Program> Prog;
    std::vector<std::unique_ptr<AnalysisContext>> Ctxs;
    std::vector<CommPlan> Plans;
    std::vector<PlanLowering> Lowerings;
  };
  auto CompileByLayers = [](const CompileOp &Op, int64_t Id,
                            const PlacementOptions &POpts, Layered &L) {
    ScopedSpan Whole("op", Id);
    const MachineProfile M = *MachineProfile::byName(Op.Opts.Machine);
    L.Prog = timed("frontend.parse", Id, [&] {
      return parseProgram(Op.Source, L.Diags, Op.Opts.Params);
    });
    if (!L.Prog || L.Diags.hasErrors())
      return false;
    timed("xform.scalarize", Id,
          [&] { return scalarizeProgram(*L.Prog, L.Diags); });
    for (const std::unique_ptr<Routine> &Rt : L.Prog->Routines) {
      L.Ctxs.push_back(timed("core.context", Id, [&] {
        return std::make_unique<AnalysisContext>(*Rt);
      }));
      L.Plans.push_back(timed("core.place", Id, [&] {
        return planCommunication(*L.Ctxs.back(), POpts);
      }));
      L.Lowerings.push_back(timed("lower.lower", Id, [&] {
        return lowerPlan(*L.Ctxs.back(), L.Plans.back(), M, POpts.NumProcs);
      }));
    }
    return !L.Diags.hasErrors();
  };

  Tracer T;
  Samples Untraced;
  StatsRegistry Placement;
  int64_t Entries = 0, Groups = 0;
  double Bytes = 0;
  for (size_t I = 0; I != Ops.size(); ++I) {
    const CompileOp &Op = Ops[I];
    const int64_t Id = static_cast<int64_t>(I);
    PlacementOptions Counted = Op.Opts.Placement;
    Counted.Stats = &Placement;
    const PlacementOptions &Quiet = Op.Opts.Placement;
    const MachineProfile M = *MachineProfile::byName(Op.Opts.Machine);
    const int Procs = Quiet.NumProcs;

    // The same compile untraced, just before the traced one: the reference
    // for the tracing overhead.
    ActiveTracer = nullptr;
    {
      Layered Reference;
      const Clock::time_point T0 = Clock::now();
      CompileByLayers(Op, Id, Quiet, Reference);
      Untraced.add(msBetween(T0, Clock::now()));
    }
    ActiveTracer = &T;
    Layered L;
    const bool Ok = CompileByLayers(Op, Id, Counted, L);
    R.check(Ok, Op.Name + ": " + L.Diags.str());
    if (!Ok)
      continue;
    const std::unique_ptr<Program> &Prog = L.Prog;
    const std::vector<std::unique_ptr<AnalysisContext>> &Ctxs = L.Ctxs;
    const std::vector<CommPlan> &Plans = L.Plans;
    const std::vector<PlanLowering> &Lowerings = L.Lowerings;
    Bytes += static_cast<double>(Op.Source.size());

    // Each remaining layer's public entry point on its own.
    ScopedSpan Probe("probe", Id);
    for (size_t K = 0; K != Plans.size(); ++K) {
      const Routine &Rt = *Prog->Routines[K];
      const AnalysisContext &Ctx = *Ctxs[K];
      const Cfg G = timed("cfg.build", Id, [&] { return Cfg::build(Rt); });
      const DomTree D =
          timed("cfg.domtree", Id, [&] { return DomTree::compute(G); });
      const Ssa S = timed("ssa.build", Id, [&] { return Ssa::build(G); });
      std::vector<CommEntry> Es = timed(
          "core.detect", Id, [&] { return detectCommunication(Ctx, Quiet); });
      Entries += static_cast<int64_t>(Es.size());
      timed("core.range", Id, [&] {
        std::vector<Slot> Cands;
        for (CommEntry &E : Es)
          analyzeEntryPlacement(Ctx, E, Quiet, Cands);
      });
      // After the range probe each shift entry holds its Latest point,
      // which the Earliest walk starts from; reductions have no walk.
      timed("core.earliest", Id, [&] {
        for (const CommEntry &E : Es)
          if (E.M.Kind != CommKind::Reduce)
            (void)computeEarliestSlot(Ctx, E);
      });
      const ExecProgram Exec = timed("lower.schedule", Id, [&] {
        return ExecProgram::build(Ctx, Plans[K]);
      });
      timed("runtime.simulate", Id, [&] {
        return simulate(Ctx, Plans[K], Exec, M, Procs, &Lowerings[K]);
      });
      // Timed only: the untraced runs check the plans.
      timed("analysis.audit", Id,
            [&] { return auditPlan(Ctx, Plans[K], Quiet); });
      timed("analysis.verify", Id,
            [&] { return verifyPlan(Ctx, Plans[K], Quiet); });
      Groups += Plans[K].Stats.totalGroups();
    }
    // The same program at half its size, for the doubling ratio.
    DiagEngine HalfDiags;
    std::unique_ptr<Program> Half =
        parseProgram(Op.HalfSource, HalfDiags, Op.HalfOpts.Params);
    R.check(Half && !HalfDiags.hasErrors(), Op.Name + " (half): " +
                                                HalfDiags.str());
    if (!Half || HalfDiags.hasErrors())
      continue;
    scalarizeProgram(*Half, HalfDiags);
    for (const std::unique_ptr<Routine> &Rt : Half->Routines) {
      const AnalysisContext Ctx(*Rt);
      timed("core.place_half", Id,
            [&] { return planCommunication(Ctx, Op.HalfOpts.Placement); });
    }
  }

  // The request path of the compile server, in process: every request
  // through one result cache.
  ActiveTracer = &T;
  ResultCache Cache;
  for (size_t I = 0; I != Replay.size(); ++I) {
    const CompileOp &Op = Replay[I];
    const int64_t Id = static_cast<int64_t>(I);
    timed("driver.slice", Id, [&] {
      std::string Prelude;
      return sliceRoutineSources(Op.Source, Prelude);
    });
    ScopedSpan Request("driver.request", Id);
    Session S(Op.Source, Op.Opts);
    timed("driver.cached_run", Id,
          [&] { return CachedPipeline(Cache).run(S); });
    const CompileResult Res = S.take();
    const std::string Out = timed("driver.render", Id, [&] {
      return renderCompileOutput(Op.Name, S, Res, /*PrintPlans=*/true,
                                 /*Stats=*/false, /*DumpDecisions=*/false);
    });
    R.check(Res.Ok && !Out.empty(), Op.Name + ": " + Res.Errors);
  }
  ActiveTracer = nullptr;

  R.check(T.balanced(), "trace spans are not balanced");
  for (const char *Name : kLayerSpans)
    R.check(!T.perOp(Name).empty(), strFormat("no %s span recorded", Name));

  auto Med = [&](const char *Name) { return T.medianPerOp(Name); };
  const double NumOps = static_cast<double>(Ops.size());
  R.add("frontend.parse_ms", Med("frontend.parse"), "ms");
  R.add("frontend.mb_per_s",
        Bytes / 1048576.0 / (T.totalMs("frontend.parse") / 1e3), "MiB/s");
  R.add("xform.scalarize_ms", Med("xform.scalarize"), "ms");
  R.add("cfg.build_ms", Med("cfg.build"), "ms");
  R.add("cfg.domtree_ms", Med("cfg.domtree"), "ms");
  R.add("ssa.build_ms", Med("ssa.build"), "ms");
  R.add("core.context_ms", Med("core.context"), "ms");
  R.add("core.detect_ms", Med("core.detect"), "ms");
  R.add("core.entries", static_cast<double>(Entries) / NumOps, "count");
  R.add("core.range_ms", Med("core.range"), "ms");
  R.add("core.earliest_ms", Med("core.earliest"), "ms");
  {
    // Selection: what placement spends beyond detection and the ranges.
    const auto Place = T.perOp("core.place"), Detect = T.perOp("core.detect"),
               Range = T.perOp("core.range");
    Samples Select;
    for (const auto &[Op, Ms] : Place)
      Select.add(Ms - Detect.at(Op) - Range.at(Op));
    R.add("core.select_ms", Select.median(), "ms");
  }
  R.add("core.place_ms", Med("core.place"), "ms");
  R.add("core.place_doubling_ratio",
        T.totalMs("core.place") / T.totalMs("core.place_half"), "ratio");
  R.add("core.dom_queries",
        static_cast<double>(Placement.get("dom.queries")) / NumOps, "count");
  R.add("core.pair_compares",
        static_cast<double>(Placement.get("placement.pair-compares")) / NumOps,
        "count");
  R.add("core.groups_per_entry",
        static_cast<double>(Groups) / static_cast<double>(Entries), "ratio");
  R.add("lower.lower_ms", Med("lower.lower"), "ms");
  R.add("lower.schedule_ms", Med("lower.schedule"), "ms");
  R.add("runtime.simulate_ms", Med("runtime.simulate"), "ms");
  R.add("analysis.audit_ms", Med("analysis.audit"), "ms");
  R.add("analysis.verify_ms", Med("analysis.verify"), "ms");
  R.add("driver.request_ms", Med("driver.request"), "ms");
  R.add("driver.cached_run_ms", Med("driver.cached_run"), "ms");
  R.add("driver.render_ms", Med("driver.render"), "ms");
  R.add("driver.slice_ms", Med("driver.slice"), "ms");
  const CacheStats CS = Cache.stats();
  R.add("cache.hit_ratio",
        static_cast<double>(CS.Hits) /
            static_cast<double>(std::max<int64_t>(1, CS.Hits + CS.Misses)),
        "ratio");
  R.add("cache.routine_hit_ratio",
        static_cast<double>(CS.RoutineHits) /
            static_cast<double>(
                std::max<int64_t>(1, CS.RoutineHits + CS.RoutineMisses)),
        "ratio");
  R.add("cache.mem_mb", static_cast<double>(CS.Bytes) / 1048576.0, "MiB");

  std::printf("traced: %zu spans over %zu ops and %zu requests; op self "
              "time %.3f ms of %.3f ms\n",
              T.spans().size(), Ops.size(), Replay.size(), T.selfMs("op"),
              T.totalMs("op"));
  std::printf("tracing overhead: traced op p50 %.3f ms - the same compiles "
              "untraced p50 %.3f ms = %+.3f ms\n",
              Med("op"), Untraced.median(), Med("op") - Untraced.median());

  // The same requests, one at a time, through a compile daemon.
  Daemon D;
  std::string Err;
  const std::string Log = O.OutDir + "/traced-requests.log";
  std::remove(Log.c_str());
  const bool Up = D.start(O, "traced", Log, Err);
  R.check(Up, "daemon: " + Err);
  if (!Up)
    return;
  std::vector<CompileRequest> Reqs;
  for (size_t I = 0; I != Replay.size(); ++I) {
    CompileRequest &Req = Reqs.emplace_back();
    Req.Id = static_cast<int64_t>(I);
    Req.Name = Replay[I].Name;
    Req.Source = Replay[I].Source;
    Req.Opts = Replay[I].Opts;
  }
  std::vector<Response> Resp;
  std::vector<double> Latency, Late;
  const bool Sent = sendSequential(D, Reqs, Resp, Latency, Late, Err);
  R.check(Sent, "daemon replay: " + Err);
  D.stop();
  Samples Overhead, ResponseKb, Lateness, QueueWait, Compile;
  for (size_t I = 0; I != Resp.size(); ++I) {
    R.check(Resp[I].Status == "ok" && Resp[I].Id == static_cast<int64_t>(I),
            strFormat("daemon request %zu: %s", I, Resp[I].Status.c_str()));
    Overhead.add(Latency[I] - 1e3 * Resp[I].WallSec);
    ResponseKb.add(static_cast<double>(Resp[I].Bytes) / 1024.0);
    Lateness.add(Late[I]);
  }
  std::ifstream In(Log);
  for (std::string Line; std::getline(In, Line);) {
    JsonValue V;
    std::string JErr;
    if (!JsonValue::parse(Line, V, JErr))
      continue;
    if (const JsonValue *Q = V.get("queue_wait_ms"))
      QueueWait.add(Q->numberValue());
    if (const JsonValue *C = V.get("compile_ms"))
      Compile.add(C->numberValue());
  }
  R.check(QueueWait.size() == Reqs.size(),
          strFormat("request log has %zu of %zu requests", QueueWait.size(),
                    Reqs.size()));
  R.add("serve.queue_wait_ms.tail", QueueWait.quantile(QueueWait.tailLevel()),
        "ms");
  R.add("serve.compile_ms.p50", Compile.median(), "ms");
  R.add("serve.overhead_ms.p50", Overhead.median(), "ms");
  R.add("serve.response_kb", ResponseKb.median(), "KiB");
  R.add("loadgen.late_ms.tail", Lateness.quantile(Lateness.tailLevel()), "ms");
  std::printf("daemon replay: %zu requests; tails are %s\n", Resp.size(),
              levelName(Lateness.tailLevel()).c_str());
}

} // namespace pb
