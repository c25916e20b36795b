//===- driver/CachedPipeline.h - Cache-fronted pipeline ---------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue between the pass pipeline (driver/Pipeline.h) and the
/// content-addressed result cache (support/ResultCache.h).
///
/// Cache-key discipline: the key must capture EVERY input that can change a
/// compilation's output — the exact source bytes, the full, canonically
/// normalized CompileOptions (strategy, thresholds, extension toggles,
/// verify and lint switches, dump-after selector, param overrides sorted by
/// name and default-filled), the pipeline's pass-list fingerprint, and the
/// tool version string. Any new pass or option MUST be folded into
/// optionsFingerprint()/pipelineFingerprint(), or warm replays silently go
/// stale; tests/test_cache.cpp enumerates option flips to enforce this.
///
/// On a hit, CachedPipeline::run replays the stored artifacts into the
/// Session (diagnostics, plan text, dump-after records, counters) without
/// executing a single pass; on a miss it runs the pipeline and stores the
/// harvest. Either way the session renders bitwise-identical output.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_DRIVER_CACHEDPIPELINE_H
#define GCA_DRIVER_CACHEDPIPELINE_H

#include "driver/Pipeline.h"
#include "support/ResultCache.h"

namespace gca {

/// Version string folded into every cache key: bump whenever any pass
/// changes behavior without changing its name, so stale on-disk entries
/// from older builds can never replay.
extern const char *const kGcaCacheVersion;

/// Canonical text rendering of \p Opts: every field is emitted explicitly
/// (defaults included) in a fixed order, with param overrides sorted by
/// name, so semantically identical option sets — however they were built up
/// — render and hash identically. The non-semantic PlacementOptions::Stats
/// export pointer is excluded.
std::string optionsFingerprint(const CompileOptions &Opts);

/// The pipeline's pass list as "pass:<name>" lines, in order.
std::string pipelineFingerprint(const Pipeline &P);

/// The content-addressed key for compiling \p Source under \p Opts with
/// \p P: a digest of (version, options fingerprint, pipeline fingerprint,
/// source bytes).
CacheKey compileCacheKey(const std::string &Source, const CompileOptions &Opts,
                         const Pipeline &P = Pipeline::standard());

/// Builds the replayable artifacts of a finished session (the value stored
/// under its cache key). The session must have run to completion. Plans are
/// in file order; routines the session replayed from the routine cache
/// contribute their cached plan text (they were never parsed).
CachedResult harvestSession(Session &S);

/// --- Routine-granularity keys ---------------------------------------------

/// Splits \p Source at `routine <name>` marker lines (the only place the
/// grammar admits the keyword at the start of a line) and fills \p Prelude
/// with everything before the first marker — the program/param header every
/// routine's analysis can see. Returns no slices when the file has no
/// markers: such a file is one implicit routine and the whole-file cache
/// entry already covers it at routine granularity.
std::vector<RoutineSlice> sliceRoutineSources(const std::string &Source,
                                              std::string &Prelude);

/// The content-addressed key for one routine's per-routine pass artifacts:
/// a digest of (version, options fingerprint, pipeline fingerprint, prelude,
/// start line, routine text). The start line is key material because cached
/// diagnostics carry absolute line numbers — an edit that shifts a routine
/// invalidates it, while an in-place edit of one routine leaves every other
/// routine's key (and so its cache entry) intact.
CacheKey routineCacheKey(const std::string &Prelude,
                         const std::string &RoutineText, int StartLine,
                         const CompileOptions &Opts,
                         const Pipeline &P = Pipeline::standard());

/// A pipeline fronted by a result cache.
class CachedPipeline {
public:
  explicit CachedPipeline(ResultCache &Cache,
                          const Pipeline &P = Pipeline::standard())
      : Cache(Cache), P(P) {}

  /// Runs \p S to completion: replays a cached result when one exists,
  /// otherwise runs the pipeline and stores the harvest. Single-flight —
  /// concurrent sessions with identical keys compute once. \returns true
  /// on a cache hit (S.Result.FromCache is set accordingly).
  bool run(Session &S);

private:
  /// Populates S.RoutineCache and S.RoutinePrelude from the source's
  /// routine slices (looking up each key, installing hits) — or leaves them
  /// empty when routine caching cannot apply: dump-after hooks need live IR
  /// for every routine, and files without markers have nothing finer than
  /// the whole file.
  void setupRoutineCache(Session &S);
  /// Stores every missed routine's entry after a successful run, with its
  /// plan text from \p R, the session's harvest.
  void storeRoutineResults(Session &S, const CachedResult &R);

  ResultCache &Cache;
  const Pipeline &P;
};

} // namespace gca

#endif // GCA_DRIVER_CACHEDPIPELINE_H
