//===- driver/Pipeline.h - Instrumented pass pipeline -----------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass-manager view of the Figure-6 compilation flow. A Session owns
/// every piece of state for one compilation — source text, diagnostics,
/// counter registry, time trace, intermediate program, per-routine results —
/// so sessions are reentrant: any number may run concurrently on different
/// threads with no shared mutable state. A Pipeline is an ordered list of
/// named Pass objects; the standard pipeline is
///
///   parse -> scalarize -> fuse -> build-context -> placement -> lower
///     -> verify -> lint
///
/// where option-gated passes (scalarize, fuse, verify, lint) are no-ops
/// when disabled, keeping pass names stable for dump-after hooks. The pipeline
/// runner times every pass (wall + thread CPU), snapshots the counter
/// registry around it so increments are attributed to the pass that made
/// them, and records dumps after the pass named by CompileOptions::DumpAfter.
/// Passes do their per-routine work through Session::forEachRoutine, which
/// is also where routines replayed from the routine cache skip that work
/// (see RoutineCache below).
///
/// compileSource() in Compile.h is a thin wrapper over Session and remains
/// the one-call entry point.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_DRIVER_PIPELINE_H
#define GCA_DRIVER_PIPELINE_H

#include "driver/Compile.h"
#include "support/ResultCache.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <functional>

namespace gca {

class Session;

/// One `routine` block of an HPF-lite source, as sliced by
/// sliceRoutineSources() (driver/CachedPipeline.h): the marker line plus
/// everything up to the next marker (or end of file).
struct RoutineSlice {
  std::string Name;
  int StartLine = 0; ///< 1-based source line of the `routine` marker.
  std::string Text;  ///< Marker line through the line before the next marker.
};

/// One named stage of the pipeline. Fn returns false to abort the run
/// (a fatal error; the session's Result.Errors is expected to be set).
struct Pass {
  std::string Name;
  std::function<bool(Session &)> Fn;
};

/// Instrumentation captured around one pass execution.
struct PassRecord {
  std::string Name;
  TimeRecord Time;
  /// Counters incremented while the pass ran (name -> increment).
  StatsRegistry::Snapshot Counters;
};

/// An ordered, immutable list of passes.
class Pipeline {
public:
  Pipeline &add(std::string Name, std::function<bool(Session &)> Fn);
  const std::vector<Pass> &passes() const { return Passes; }

  /// Runs every pass over \p S in order, instrumenting each; stops at the
  /// first pass that returns false. \returns true when all passes ran.
  bool run(Session &S) const;

  /// The standard Figure-6 pipeline (see the file comment).
  static const Pipeline &standard();

private:
  std::vector<Pass> Passes;
};

/// True when \p Name is a pass of Pipeline::standard() or "all": the
/// dump-after selectors the CLI and the compile server accept.
bool isDumpAfterName(const std::string &Name);

/// All state for one compilation of one source buffer.
class Session {
public:
  Session(std::string Source, CompileOptions Opts);
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Runs the standard pipeline. \returns Result.Ok.
  bool run() { return run(Pipeline::standard()); }
  bool run(const Pipeline &P);

  /// Finalizes and moves the result out (renders accumulated non-error
  /// diagnostics into Result.Diagnostics). The session keeps its
  /// instrumentation (Stats, Times, Passes, Dumps) for reporting.
  CompileResult take();

  /// --- Routine-granularity incremental recompilation -------------------
  ///
  /// Every pass reads one routine at a time plus the file's header
  /// (placement is intraprocedural), so a routine's artifacts depend only
  /// on (options, pipeline, header, its own text and start line). On a
  /// whole-file cache miss, CachedPipeline slices the source into
  /// per-routine texts, keys each on exactly that, and looks every key up
  /// before the pipeline runs. The parse pass then parses only the header
  /// and the routines that missed, and forEachRoutine runs each pass's
  /// per-routine work only for them: a routine that hits exists only as its
  /// cached artifacts — plan text plus, per pass, its diagnostics, counters
  /// and verdict — which forEachRoutine replays in file order. An in-place
  /// edit of one routine in a multi-routine file therefore parses,
  /// scalarizes, builds a context for and places one routine. The start
  /// line in the key keeps replayed diagnostic line numbers honest: an edit
  /// that shifts later routines invalidates their keys.
  struct RoutineCacheEntry {
    RoutineSlice Slice;
    CacheKey Key;
    bool Hit = false;
    /// On a hit: the replayed artifacts. On a miss: the harvest under
    /// construction — forEachRoutine records per-pass diagnostic, counter
    /// and verdict segments here and CachedPipeline stores the finished
    /// entry after the run.
    CachedResult Value;
  };
  /// One entry per routine slice, in file order; empty when routine caching
  /// is inactive (no cache, no `routine` markers, a dump-after hook or
  /// --verify=each that needs live IR, or slices that do not parse on
  /// their own).
  std::vector<RoutineCacheEntry> RoutineCache;
  /// The source text before the first routine slice (program header and
  /// file-level params).
  std::string RoutinePrelude;

  bool routineCacheActive() const { return !RoutineCache.empty(); }

  /// Runs \p Body(I, Stats) for each routine of the compilation in file
  /// order, each inside a time region named after the routine when
  /// \p Timed (the frontend passes, whose per-routine work costs little
  /// next to a region's clock reads, pass false). I indexes the live
  /// routines (Result.Prog->Routines, and Result.Routines once
  /// build-context has run); Body adds its counters to Stats and returns
  /// the routine's verdict for the pass (true when the pass has none).
  /// With the routine cache active, a routine that hit skips Body and
  /// replays the diagnostics, counters and verdict pass \p Pass recorded
  /// when it was computed; a routine that missed runs Body and records
  /// them. \returns true when every routine's verdict is true.
  bool forEachRoutine(
      const char *Pass,
      const std::function<bool(size_t I, StatsRegistry &Stats)> &Body,
      bool Timed = true);

  /// Installs a ResultCache hit into this session without running any pass:
  /// Result gains the cached flags, errors, rendered diagnostics and plan
  /// texts (FromCache set), Dumps the cached dump-after records, and Stats
  /// the cached counters — everything a cold run would have produced, minus
  /// the live IR. Used by CachedPipeline (driver/CachedPipeline.h).
  void replayResult(const CachedResult &R);

  /// Renders the current program (HPF-lite text) and any computed plans;
  /// the payload of dump-after records.
  std::string dump() const;

  /// Hierarchical per-pass (and per-routine, under placement/verify/lint)
  /// time report.
  std::string timeReport() const { return Times.report(); }

  /// Per-pass timings and counters as one JSON object:
  /// {"passes":[{name,wall_s,cpu_s,counters{}}...],"regions":[tree]}.
  std::string timeReportJson() const;

  CompileOptions Opts;
  std::string Source;

  /// Accumulates across the whole run — frontend warnings are *kept* when
  /// verify/lint run later (they all render into Result.Diagnostics).
  DiagEngine Diags;
  StatsRegistry Stats;
  TimeTrace Times;
  /// One record per executed pass, in execution order.
  std::vector<PassRecord> Passes;
  /// (pass name, dump text) records made by dump-after hooks.
  std::vector<std::pair<std::string, std::string>> Dumps;

  /// The result under construction; passes populate it in place.
  CompileResult Result;

private:
  bool Taken = false;
  /// Set by replayResult(): take() must keep the replayed Diagnostics
  /// instead of re-rendering the (empty) DiagEngine.
  bool Replayed = false;
};

} // namespace gca

#endif // GCA_DRIVER_PIPELINE_H
