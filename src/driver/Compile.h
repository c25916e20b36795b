//===- driver/Compile.h - One-call compilation pipeline ---------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point: parse HPF-lite text (or take a built routine),
/// scalarize, run the analysis pipeline of Figure 6 (dataflow/dependence
/// analysis -> communication analyzer -> placement), and return the plans.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_DRIVER_COMPILE_H
#define GCA_DRIVER_COMPILE_H

#include "analysis/IrVerify.h"
#include "core/Placement.h"
#include "frontend/Parser.h"
#include "lower/Lower.h"

#include <memory>
#include <string>
#include <vector>

namespace gca {

class ResultCache;

/// How much translation validation (analysis/IrVerify.h,
/// analysis/AvailDataflow.h) the pipeline runs.
enum class VerifyMode : uint8_t {
  Off,   ///< No verification.
  Final, ///< Verify the final plans once, after placement.
  Each,  ///< Final, plus structural IR verification after every pass that
         ///< has a CFG/SSA to check (build-context, placement).
};

struct CompileOptions {
  PlacementOptions Placement;
  /// Problem-size overrides for `param` declarations (how benchmarks sweep).
  ParamMap Params;
  /// Run the pHPF-style scalarizer before analysis (Figure 3's pipeline).
  bool Scalarize = true;
  /// Fuse adjacent conformable nests after scalarization (the repair the
  /// paper's Section 2.3 notes "is not always possible"); off by default to
  /// match the pHPF pipeline.
  bool FuseLoops = false;
  /// Translation validation: independently re-verify every produced plan
  /// with the structural IR verifier, the combining rule, and the
  /// availability dataflow; violations land in CompileResult::Diagnostics
  /// and clear VerifyOk. On by default in asserts-enabled builds, matching
  /// the cost profile of assertions.
#ifdef NDEBUG
  VerifyMode Verify = VerifyMode::Off;
#else
  VerifyMode Verify = VerifyMode::Final;
#endif
  /// Run the communication lint rules (analysis/CommLint.h); warnings land
  /// in CompileResult::Diagnostics.
  bool Lint = false;
  /// Machine profile the collective lowering pass selects algorithms for
  /// (MachineProfile::byName registry name). An unknown name is a
  /// compilation error listing the registry.
  std::string Machine = "sp2";
  /// Name of a pipeline pass ("parse", "scalarize", "fuse", "build-context",
  /// "placement", "lower", "verify", "lint", or "all") after which the
  /// session records a dump of the program and any plans (Session::Dumps).
  /// Empty = never.
  std::string DumpAfter;
};

/// Analysis results for one routine.
struct RoutineResult {
  Routine *R = nullptr;
  std::unique_ptr<AnalysisContext> Ctx;
  CommPlan Plan;
  /// The collective lowering of Plan under CompileOptions::Machine
  /// (lower/Lower.h), populated by the "lower" pass.
  PlanLowering Lowering;
  /// Populated when CompileOptions::Verify is not Off.
  VerifyReport Verify;
};

/// Results for one compilation.
struct CompileResult {
  bool Ok = false;
  /// False when the translation-validation verifier found violations in
  /// some routine (or some pass left the IR structurally broken).
  bool VerifyOk = true;
  std::string Errors;
  /// Rendered non-fatal diagnostics (DiagEngine::str() format): frontend
  /// warnings/notes followed by verify errors and lint warnings.
  std::string Diagnostics;
  std::unique_ptr<Program> Prog;
  std::vector<RoutineResult> Routines;

  /// True when this result was replayed from a ResultCache hit. Replayed
  /// results carry the rendered artifacts (Diagnostics, PlanTexts, and the
  /// session's Dumps/Stats) bitwise-identical to a cold run, but not the
  /// live IR: Prog and Routines are empty.
  bool FromCache = false;
  /// (routine name, rendered CommPlan::str text) in routine order. Populated
  /// whenever the compilation went through a ResultCache (hit or miss), so
  /// cold and warm runs render plans from the same bytes.
  std::vector<std::pair<std::string, std::string>> PlanTexts;

  /// The result for a routine by name; null when absent.
  const RoutineResult *find(const std::string &Name) const;

  /// The concatenated rendered plans: PlanTexts when present (any
  /// cache-mediated compilation), otherwise rendered from Routines.
  std::string planText() const;
};

/// Parses, scalarizes and analyzes \p Source under \p Opts. A thin wrapper
/// over the instrumented pass pipeline in driver/Pipeline.h; use a Session
/// directly for timing, counters, or dump-after hooks.
CompileResult compileSource(const std::string &Source,
                            const CompileOptions &Opts);

/// compileSource through a result cache: on a hit the returned result is
/// replayed (FromCache set, rendered artifacts only — see
/// CompileResult::FromCache); on a miss it is a normal compilation whose
/// artifacts are stored under the content-addressed key. A null \p Cache
/// behaves exactly like the two-argument overload.
CompileResult compileSource(const std::string &Source,
                            const CompileOptions &Opts, ResultCache *Cache);

/// Analyzes one already-built (and already-scalarized) routine.
RoutineResult analyzeRoutine(Routine &R, const PlacementOptions &Opts);

} // namespace gca

#endif // GCA_DRIVER_COMPILE_H
