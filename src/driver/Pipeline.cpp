//===- driver/Pipeline.cpp - Instrumented pass pipeline -------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/AvailDataflow.h"
#include "analysis/CommLint.h"
#include "ir/Printer.h"
#include "support/Json.h"
#include "support/ResultCache.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "xform/Fuse.h"
#include "xform/Scalarize.h"

#include <cassert>
#include <cstdlib>
#include <optional>
#include <thread>

using namespace gca;

//===----------------------------------------------------------------------===//
// Standard passes
//===----------------------------------------------------------------------===//

/// With the routine cache active, parses only the file header and the
/// routines that missed, each at its own start line. On errors it falls
/// back (routine cache off, \returns false): only a clean parse of every
/// block is guaranteed to equal the whole-file parse, diagnostics included.
/// A clean parse also agrees with the slicing, because a marker's name is
/// the identifier token that follows `routine`.
static bool parseMissedRoutines(Session &S) {
  if (!S.routineCacheActive())
    return false;
  std::vector<SourceBlock> Missed;
  for (const Session::RoutineCacheEntry &E : S.RoutineCache)
    if (!E.Hit)
      Missed.push_back({E.Slice.Text, E.Slice.StartLine});
  DiagEngine Diags;
  std::unique_ptr<Program> Prog =
      parseRoutineBlocks(S.RoutinePrelude, Missed, Diags, S.Opts.Params);
  if (!Prog || Diags.hasErrors()) {
    S.RoutineCache.clear();
    return false;
  }
  assert(Prog->Routines.size() == Missed.size());
  for (const Diag &D : Diags.diags())
    S.Diags.append(D);
  S.Result.Prog = std::move(Prog);
  return true;
}

static bool passParse(Session &S) {
  if (!parseMissedRoutines(S))
    S.Result.Prog = parseProgram(S.Source, S.Diags, S.Opts.Params);
  if (S.Diags.hasErrors() || !S.Result.Prog) {
    S.Result.Errors = S.Diags.str();
    return false;
  }
  S.forEachRoutine(
      "parse",
      [](size_t, StatsRegistry &Stats, DiagEngine &) {
        Stats.add("frontend.routines");
        return true;
      },
      /*Timed=*/false);
  return true;
}

static bool passScalarize(Session &S) {
  if (!S.Opts.Scalarize)
    return true;
  unsigned ErrsBefore = S.Diags.errorCount();
  S.forEachRoutine(
      "scalarize",
      [&](size_t I, StatsRegistry &, DiagEngine &Diags) {
        scalarizeRoutine(*S.Result.Prog->Routines[I], Diags);
        return true;
      },
      /*Timed=*/false);
  if (S.Diags.errorCount() > ErrsBefore) {
    S.Result.Errors = S.Diags.str();
    return false;
  }
  return true;
}

static bool passFuse(Session &S) {
  if (!S.Opts.FuseLoops)
    return true;
  S.forEachRoutine(
      "fuse",
      [&](size_t I, StatsRegistry &Stats, DiagEngine &) {
        Stats.add("fuse.loops-fused", fuseLoops(*S.Result.Prog->Routines[I]));
        return true;
      },
      /*Timed=*/false);
  return true;
}

static bool passBuildContext(Session &S) {
  S.Result.Routines.resize(S.Result.Prog->Routines.size());
  S.forEachRoutine("build-context",
                   [&](size_t I, StatsRegistry &, DiagEngine &) {
    RoutineResult &RR = S.Result.Routines[I];
    RR.R = S.Result.Prog->Routines[I].get();
    RR.Ctx = std::make_unique<AnalysisContext>(*RR.R);
    return true;
  });
  return true;
}

/// Forwards a routine's placement decision log to the trace as instant
/// events (category "decision"), one per DecisionEvent, in algorithm order.
/// \p From skips events already traced by an earlier pass.
static void traceDecisions(const Routine &R, const CommPlan &Plan,
                           size_t From = 0) {
  TraceCollector &C = TraceCollector::instance();
  if (!C.enabled())
    return;
  for (size_t I = From; I != Plan.Decisions.size(); ++I) {
    const DecisionEvent &E = Plan.Decisions[I];
    std::vector<TraceArg> Args;
    Args.emplace_back("routine", R.name());
    if (E.EntryId >= 0)
      Args.emplace_back("entry", E.EntryId);
    if (E.OtherId >= 0)
      Args.emplace_back("other", E.OtherId);
    if (E.Where.isValid())
      Args.emplace_back("slot",
                        strFormat("(B%d,%d)", E.Where.Node, E.Where.Index));
    Args.emplace_back("detail", decisionDetail(E, R));
    C.instant(decisionKindName(E.Kind), "decision", std::move(Args));
  }
}

//===----------------------------------------------------------------------===//
// Routine cache segments
//===----------------------------------------------------------------------===//
//
// Per-routine cache values are CachedResult-shaped; the per-pass artifacts a
// replay must reproduce ride in Value.Dumps as ("diags:<pass>", text),
// ("counters:<pass>", text) and ("failed:<pass>", "") segments. Diagnostics
// encode one per line as "<kind> <line> <col> <message>" with backslash and
// newline escaped (diag messages are single-line by convention, but the
// encoding must not corrupt one that is not); counters encode as
// "<value> <name>" lines, zero values included, because a counter a pass
// merely touched still shows in --stats. A failed segment marks a routine
// whose verdict for the pass (verify) was negative. Replay
// re-appends the diagnostics through DiagEngine::append — emission order
// and the error tally survive — and re-adds the counters inside the pass
// that originally produced them, so per-pass counter attribution in the
// time report is identical to a cold run.

static std::string escapeSegmentText(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

static std::string unescapeSegmentText(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] == '\\' && I + 1 != S.size()) {
      ++I;
      Out += S[I] == 'n' ? '\n' : S[I];
    } else {
      Out += S[I];
    }
  }
  return Out;
}

/// Encodes the diagnostics one routine's pass emitted.
static std::string encodeDiagSegment(const std::vector<Diag> &Diags) {
  std::string Out;
  for (const Diag &D : Diags)
    Out += strFormat("%d %d %d %s\n", static_cast<int>(D.Kind), D.Loc.Line,
                     D.Loc.Col, escapeSegmentText(D.Message).c_str());
  return Out;
}

static void replayDiagSegment(const std::string &Text, DiagEngine &Diags) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    char *Cursor = Line.data();
    long Kind = std::strtol(Cursor, &Cursor, 10);
    long Ln = std::strtol(Cursor, &Cursor, 10);
    long Col = std::strtol(Cursor, &Cursor, 10);
    if (*Cursor == ' ')
      ++Cursor;
    Diag D;
    D.Kind = static_cast<DiagKind>(Kind);
    D.Loc = SourceLoc{static_cast<int>(Ln), static_cast<int>(Col)};
    D.Message = unescapeSegmentText(std::string(Cursor));
    Diags.append(std::move(D));
  }
}

static std::string encodeCounterSegment(const StatsRegistry::Snapshot &Counts) {
  std::string Out;
  for (const auto &[Name, Value] : Counts)
    Out += strFormat("%lld %s\n", static_cast<long long>(Value), Name.c_str());
  return Out;
}

static void replayCounterSegment(const std::string &Text,
                                 StatsRegistry &Stats) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    char *Cursor = Line.data();
    long long Value = std::strtoll(Cursor, &Cursor, 10);
    if (*Cursor == ' ')
      ++Cursor;
    if (*Cursor)
      Stats.add(std::string(Cursor), Value);
  }
}

//===----------------------------------------------------------------------===//
// Placement and the passes after it
//===----------------------------------------------------------------------===//

static bool passPlacement(Session &S) {
  S.forEachRoutine("placement", [&](size_t I, StatsRegistry &Stats,
                                    DiagEngine &) {
    RoutineResult &RR = S.Result.Routines[I];
    PlacementOptions POpts = S.Opts.Placement;
    POpts.Stats = &Stats;
    RR.Plan = planCommunication(*RR.Ctx, POpts);
    traceDecisions(*RR.R, RR.Plan);
    return true;
  });
  return true;
}

static bool passLower(Session &S) {
  std::optional<MachineProfile> M = MachineProfile::byName(S.Opts.Machine);
  if (!M) {
    std::string Names;
    for (const std::string &N : MachineProfile::listProfiles())
      Names += (Names.empty() ? "" : ", ") + N;
    S.Result.Errors = strFormat("unknown machine profile '%s' (known: %s)\n",
                                S.Opts.Machine.c_str(), Names.c_str());
    return false;
  }
  S.forEachRoutine("lower", [&](size_t I, StatsRegistry &Stats,
                                DiagEngine &) {
    RoutineResult &RR = S.Result.Routines[I];
    size_t DecisionsBefore = RR.Plan.Decisions.size();
    RR.Lowering =
        lowerPlan(*RR.Ctx, RR.Plan, *M, S.Opts.Placement.NumProcs, &Stats);
    traceDecisions(*RR.R, RR.Plan, DecisionsBefore);
    return true;
  });
  return true;
}

static bool passVerify(Session &S) {
  if (S.Opts.Verify == VerifyMode::Off)
    return true;
  bool Ok = S.forEachRoutine("verify", [&](size_t I, StatsRegistry &Stats,
                                           DiagEngine &Diags) {
    RoutineResult &RR = S.Result.Routines[I];
    PlacementOptions POpts = S.Opts.Placement;
    POpts.Stats = &Stats;
    RR.Verify = verifyPlan(*RR.Ctx, RR.Plan, POpts, &Diags);
    return RR.Verify.ok();
  });
  S.Result.VerifyOk = S.Result.VerifyOk && Ok;
  return true;
}

static bool passLint(Session &S) {
  if (!S.Opts.Lint)
    return true;
  S.forEachRoutine("lint", [&](size_t I, StatsRegistry &Stats,
                               DiagEngine &Diags) {
    RoutineResult &RR = S.Result.Routines[I];
    std::optional<int> OrigGroups;
    if (S.Opts.Placement.Strat != Strategy::Orig) {
      OrigGroups = origGroupCount(*RR.Ctx, RR.Plan, S.Opts.Placement);
      Stats.add("placement.baseline-groups", *OrigGroups);
    }
    Stats.add("lint.warnings",
              lintRoutine(*RR.Ctx, RR.Plan, OrigGroups, Diags));
    return true;
  });
  return true;
}

const Pipeline &Pipeline::standard() {
  static const Pipeline P = [] {
    Pipeline P;
    P.add("parse", passParse)
        .add("scalarize", passScalarize)
        .add("fuse", passFuse)
        .add("build-context", passBuildContext)
        .add("placement", passPlacement)
        .add("lower", passLower)
        .add("verify", passVerify)
        .add("lint", passLint);
    return P;
  }();
  return P;
}

bool gca::isDumpAfterName(const std::string &Name) {
  if (Name == "all")
    return true;
  for (const Pass &P : Pipeline::standard().passes())
    if (P.Name == Name)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Pipeline runner
//===----------------------------------------------------------------------===//

Pipeline &Pipeline::add(std::string Name, std::function<bool(Session &)> Fn) {
  Passes.push_back({std::move(Name), std::move(Fn)});
  return *this;
}

bool Pipeline::run(Session &S) const {
  for (const Pass &P : Passes) {
    StatsRegistry::Snapshot Before = S.Stats.snapshot();
    S.Times.enter(P.Name);
    bool Ok = P.Fn(S);
    TimeRecord Elapsed = S.Times.exit();
    S.Passes.push_back({P.Name, Elapsed, S.Stats.diff(Before)});
    if (Ok && !S.Opts.DumpAfter.empty() &&
        (S.Opts.DumpAfter == "all" || S.Opts.DumpAfter == P.Name))
      S.Dumps.emplace_back(P.Name, S.dump());
    if (!Ok)
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Session
//===----------------------------------------------------------------------===//

Session::Session(std::string Source, CompileOptions Opts, ThreadPool *Pool)
    : Opts(std::move(Opts)), Source(std::move(Source)), Pool(Pool) {}

Session::~Session() = default;

bool Session::run(const Pipeline &P) {
  Result.Ok = P.run(*this);
  return Result.Ok;
}

CompileResult Session::take() {
  if (!Taken && Result.Ok && !Replayed)
    Result.Diagnostics = Diags.str();
  Taken = true;
  return std::move(Result);
}

void Session::replayResult(const CachedResult &R) {
  Result.Ok = R.Ok;
  Result.VerifyOk = R.VerifyOk;
  Result.Errors = R.Errors;
  Result.Diagnostics = R.Diagnostics;
  Result.FromCache = true;
  Result.PlanTexts = R.Plans;
  Dumps = R.Dumps;
  for (const auto &[Name, Value] : R.Counters)
    Stats.add(Name, Value);
  Replayed = true;
}

namespace {
/// What one live routine's pass body produced when it ran into private
/// sinks: Session::forEachRoutine merges these into the session in file
/// order.
struct RoutineRun {
  StatsRegistry Stats;
  DiagEngine Diags;
  TimeRecord Time;
  bool OtherThread = false; ///< Ran on a pool worker, not the session's thread.
  bool Ok = true;
};
} // namespace

bool Session::forEachRoutine(const char *Pass, const RoutineBody &Body,
                             bool Timed) {
  // Each live routine's body writes only its own sinks, so the bodies may
  // run in any order and on any thread. The routine's own registry also
  // sees every counter Body touches, zero increments included, which a
  // diff of the session registry would not.
  const size_t NumLive = Result.Prog->Routines.size();
  std::vector<RoutineRun> Runs(NumLive);
  const std::thread::id Owner = std::this_thread::get_id();
  auto RunOne = [&](size_t I) {
    RoutineRun &R = Runs[I];
    std::optional<RegionTimer> T;
    if (Timed)
      T.emplace(Result.Prog->Routines[I]->name());
    R.Ok = Body(I, R.Stats, R.Diags);
    if (T)
      R.Time = T->stop();
    R.OtherThread = std::this_thread::get_id() != Owner;
  };
  if (Pool && Timed && NumLive >= 2)
    Pool->forEach(NumLive, RunOne);
  else
    for (size_t I = 0; I != NumLive; ++I)
      RunOne(I);

  // The merge, in file order, is the only writer of the session's
  // registry, diagnostics, routine regions and cache segments.
  const bool Cached = routineCacheActive();
  std::string DiagsKey, CountersKey, FailedKey;
  if (Cached) {
    DiagsKey = std::string("diags:") + Pass;
    CountersKey = std::string("counters:") + Pass;
    FailedKey = std::string("failed:") + Pass;
  }
  bool AllOk = true;
  size_t Live = 0;
  const size_t NumRoutines = Cached ? RoutineCache.size() : NumLive;
  for (size_t Slot = 0; Slot != NumRoutines; ++Slot) {
    RoutineCacheEntry *E = Cached ? &RoutineCache[Slot] : nullptr;
    if (E && E->Hit) {
      std::optional<ScopedTimer> T;
      if (Timed)
        T.emplace(Times, E->Slice.Name);
      for (const auto &[Key, Text] : E->Value.Dumps) {
        if (Key == DiagsKey)
          replayDiagSegment(Text, Diags);
        else if (Key == CountersKey)
          replayCounterSegment(Text, Stats);
        else if (Key == FailedKey)
          AllOk = false;
      }
      continue;
    }
    RoutineRun &R = Runs[Live];
    if (Timed)
      Times.add(Result.Prog->Routines[Live]->name(), R.Time, R.OtherThread);
    ++Live;
    if (E) {
      std::vector<std::pair<std::string, std::string>> &Segments =
          E->Value.Dumps;
      if (std::string Seg = encodeDiagSegment(R.Diags.diags()); !Seg.empty())
        Segments.emplace_back(DiagsKey, std::move(Seg));
      if (std::string Seg = encodeCounterSegment(R.Stats.snapshot());
          !Seg.empty())
        Segments.emplace_back(CountersKey, std::move(Seg));
      if (!R.Ok)
        Segments.emplace_back(FailedKey, "");
    }
    Stats.merge(std::move(R.Stats));
    for (const Diag &D : R.Diags.diags())
      Diags.append(D);
    AllOk = R.Ok && AllOk;
  }
  return AllOk;
}

std::string Session::dump() const {
  std::string Out;
  if (!Result.Prog)
    return Out;
  for (const auto &R : Result.Prog->Routines) {
    Out += printRoutine(*R);
    if (const RoutineResult *RR = Result.find(R->name()))
      if (!RR->Plan.Entries.empty() || !RR->Plan.Groups.empty())
        Out += RR->Plan.str(*R);
  }
  return Out;
}

std::string Session::timeReportJson() const {
  JsonWriter W;
  W.beginObject().key("passes").beginArray();
  for (const PassRecord &P : Passes) {
    W.beginObject();
    W.key("name").value(P.Name);
    W.key("wall_s").value(P.Time.WallSec);
    W.key("cpu_s").value(P.Time.CpuSec);
    W.key("counters").beginObject();
    for (const auto &[Name, Value] : P.Counters)
      W.key(Name).value(Value);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.key("regions").raw(Times.json());
  W.endObject();
  return W.str();
}
