//===- driver/CachedPipeline.cpp - Cache-fronted pipeline -----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "driver/CachedPipeline.h"

#include "support/StrUtil.h"
#include "support/Trace.h"

#include <cassert>

using namespace gca;

const char *const gca::kGcaCacheVersion = "gcomm-cache-7";

std::string gca::optionsFingerprint(const CompileOptions &Opts) {
  const PlacementOptions &P = Opts.Placement;
  std::string S;
  // Every field, defaults included, in a fixed order. %.17g round-trips
  // doubles exactly, so equal values always render equal. The
  // non-semantic Stats export pointer is excluded.
  S += strFormat("strategy=%s\n", strategyName(P.Strat));
  S += strFormat("combine-threshold-bytes=%lld\n",
                 static_cast<long long>(P.CombineThresholdBytes));
  S += strFormat("max-union-growth=%.17g\n", P.MaxUnionGrowth);
  S += strFormat("num-procs=%d\n", P.NumProcs);
  S += strFormat("subsume-diagonals=%d\n", P.SubsumeDiagonals ? 1 : 0);
  S += strFormat("partial-redundancy=%d\n", P.PartialRedundancy ? 1 : 0);
  S += strFormat("defer-reductions=%d\n", P.DeferReductions ? 1 : 0);
  S += strFormat("scalarize=%d\n", Opts.Scalarize ? 1 : 0);
  S += strFormat("fuse-loops=%d\n", Opts.FuseLoops ? 1 : 0);
  S += strFormat("verify=%d\n", static_cast<int>(Opts.Verify));
  S += strFormat("lint=%d\n", Opts.Lint ? 1 : 0);
  S += "machine=" + Opts.Machine + "\n";
  S += "dump-after=" + Opts.DumpAfter + "\n";
  // ParamMap is an ordered map, so overrides render sorted by name no
  // matter the insertion order; the prefix keeps "param:n" distinct from a
  // hypothetical option of the same name.
  for (const auto &[Name, Value] : Opts.Params)
    S += strFormat("param:%s=%lld\n", Name.c_str(),
                   static_cast<long long>(Value));
  return S;
}

std::string gca::pipelineFingerprint(const Pipeline &P) {
  std::string S;
  for (const Pass &Stage : P.passes())
    S += "pass:" + Stage.Name + "\n";
  return S;
}

CacheKey gca::compileCacheKey(const std::string &Source,
                              const CompileOptions &Opts, const Pipeline &P) {
  std::string Material;
  Material += std::string(kGcaCacheVersion) + "\n";
  Material += "--options--\n" + optionsFingerprint(Opts);
  Material += "--pipeline--\n" + pipelineFingerprint(P);
  Material += "--source--\n" + Source;
  return CacheKey::of(Material);
}

CachedResult gca::harvestSession(Session &S) {
  CachedResult R;
  R.Ok = S.Result.Ok;
  R.VerifyOk = S.Result.VerifyOk;
  R.Errors = S.Result.Errors;
  // Matches Session::take(): diagnostics render only for successful runs
  // (failed runs carry them in Errors already).
  if (S.Result.Ok)
    R.Diagnostics = S.Diags.str();
  auto Render = [&](const RoutineResult &RR) {
    R.Plans.emplace_back(RR.R->name(), RR.Plan.str(*RR.R));
  };
  if (!S.routineCacheActive()) {
    for (const RoutineResult &RR : S.Result.Routines)
      Render(RR);
  } else {
    // Routines that hit never materialized a live plan; their text comes
    // from the cache entry, in file order, so warm and cold compiles print
    // the same bytes. A compile with hits can fail only before build-context
    // (the options already compiled once), where no routine has a plan.
    size_t Live = 0;
    for (const Session::RoutineCacheEntry &E : S.RoutineCache) {
      if (!E.Hit) {
        if (Live < S.Result.Routines.size())
          Render(S.Result.Routines[Live]);
        ++Live;
      } else if (S.Result.Ok) {
        R.Plans.insert(R.Plans.end(), E.Value.Plans.begin(),
                       E.Value.Plans.end());
      }
    }
  }
  R.Dumps = S.Dumps;
  R.Counters = S.Stats.snapshot();
  return R;
}

//===----------------------------------------------------------------------===//
// Routine-granularity slicing and keys
//===----------------------------------------------------------------------===//

static bool isIdentChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_';
}

std::vector<RoutineSlice> gca::sliceRoutineSources(const std::string &Source,
                                                   std::string &Prelude) {
  std::vector<RoutineSlice> Slices;
  Prelude.clear();
  size_t Pos = 0;
  int Line = 1;
  while (Pos < Source.size()) {
    size_t Eol = Source.find('\n', Pos);
    size_t End = Eol == std::string::npos ? Source.size() : Eol + 1;
    // A marker line's first token is literally `routine` followed by an
    // identifier. Comment lines (`!`, `//`) can never match, and the
    // grammar admits the keyword nowhere else at the start of a line.
    size_t I = Pos;
    while (I < End && (Source[I] == ' ' || Source[I] == '\t'))
      ++I;
    std::string Name;
    if (Source.compare(I, 7, "routine") == 0 &&
        (I + 7 >= Source.size() || !isIdentChar(Source[I + 7]))) {
      size_t N = I + 7;
      while (N < End && (Source[N] == ' ' || Source[N] == '\t'))
        ++N;
      size_t NameBegin = N;
      while (N < End && isIdentChar(Source[N]))
        ++N;
      Name.assign(Source, NameBegin, N - NameBegin);
    }
    if (!Name.empty()) {
      RoutineSlice S;
      S.Name = std::move(Name);
      S.StartLine = Line;
      Slices.push_back(std::move(S));
    }
    std::string &Out = Slices.empty() ? Prelude : Slices.back().Text;
    Out.append(Source, Pos, End - Pos);
    Pos = End;
    ++Line;
  }
  return Slices;
}

CacheKey gca::routineCacheKey(const std::string &Prelude,
                              const std::string &RoutineText, int StartLine,
                              const CompileOptions &Opts, const Pipeline &P) {
  std::string Material;
  Material += std::string(kGcaCacheVersion) + "\n";
  Material += "--routine--\n";
  Material += "--options--\n" + optionsFingerprint(Opts);
  Material += "--pipeline--\n" + pipelineFingerprint(P);
  Material += "--prelude--\n" + Prelude;
  Material += strFormat("--start-line=%d--\n", StartLine);
  Material += "--source--\n" + RoutineText;
  return CacheKey::of(Material);
}

void CachedPipeline::setupRoutineCache(Session &S) {
  // Dump-after hooks dump every routine's live IR: full recomputation.
  if (!S.Opts.DumpAfter.empty())
    return;
  std::string Prelude;
  std::vector<RoutineSlice> Slices = sliceRoutineSources(S.Source, Prelude);
  if (Slices.empty())
    return;
  S.RoutineCache.resize(Slices.size());
  for (size_t I = 0; I != Slices.size(); ++I) {
    Session::RoutineCacheEntry &E = S.RoutineCache[I];
    E.Key = routineCacheKey(Prelude, Slices[I].Text, Slices[I].StartLine,
                            S.Opts, P);
    E.Slice = std::move(Slices[I]);
    if (std::optional<CachedResult> V = Cache.lookupRoutine(E.Key)) {
      E.Hit = true;
      E.Value = std::move(*V);
    }
  }
  S.RoutinePrelude = std::move(Prelude);
}

void CachedPipeline::storeRoutineResults(Session &S, const CachedResult &R) {
  if (!S.Result.Ok || !S.routineCacheActive())
    return;
  // A successful harvest holds one plan per routine, in file order.
  assert(R.Plans.size() == S.RoutineCache.size());
  for (size_t I = 0; I != S.RoutineCache.size(); ++I) {
    Session::RoutineCacheEntry &E = S.RoutineCache[I];
    if (E.Hit)
      continue;
    E.Value.Ok = true;
    E.Value.Plans.push_back(R.Plans[I]);
    Cache.store(E.Key, E.Value);
  }
}

bool CachedPipeline::run(Session &S) {
  CacheKey K = compileCacheKey(S.Source, S.Opts, P);
  {
    // Stamp the cache key on the compile so a trace links every span of
    // this compilation to its cache entry.
    TraceCollector &C = TraceCollector::instance();
    if (C.enabled())
      C.instant("cache-key", "cache", {{"key", K.hex()}});
  }
  bool Hit = false;
  CachedResult R = Cache.getOrCompute(
      K,
      [&] {
        // Whole-file miss: look up every routine first, run the pipeline
        // (routines that hit are never parsed or analyzed), then store the
        // recomputed routines.
        setupRoutineCache(S);
        S.run(P);
        CachedResult Out = harvestSession(S);
        storeRoutineResults(S, Out);
        return Out;
      },
      &Hit);
  if (Hit) {
    S.replayResult(R);
  } else {
    // Cold path already ran inside the lambda; expose the rendered plans so
    // cold and warm consumers print the same bytes.
    S.Result.PlanTexts = R.Plans;
  }
  return Hit;
}
