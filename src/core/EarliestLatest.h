//===- core/EarliestLatest.h - Placement range analysis ---------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes, for each communication entry:
///
///  - Latest(u): the latest-and-shallowest placement from standard
///    communication vectorization (Section 4.2) — just before the outermost
///    loop carrying no true dependence on u, or just before the statement
///    when every common level carries one;
///  - Earliest(u): the earliest *single dominating* placement, from the
///    Test/Rcount walk over the array SSA (Figure 8, Claim 4.1);
///  - the candidate slots between them along the dominator tree
///    (Figure 9(e), Claims 4.5/4.6).
///
/// Both bounds read the array's defs off the SSA's per-loop def index
/// (Ssa::arrayDefsInLoop) rather than enumerating reaching defs; the
/// implementation note in EarliestLatest.cpp says why that is exact.
///
/// Reductions skip the range analysis: the prototype places reduction
/// communication at its use and only combines same-point reductions
/// (Section 6.2).
///
//===----------------------------------------------------------------------===//

#ifndef GCA_CORE_EARLIESTLATEST_H
#define GCA_CORE_EARLIESTLATEST_H

#include "core/CommEntry.h"
#include "core/Context.h"

namespace gca {

/// Work done by the range analysis, for the `placement.range-solves` and
/// `placement.range-steps` counters: dependence solves (one subscript solve
/// per (def, ref) pair) in Latest and Earliest, and SSA walk steps.
struct RangeWork {
  int64_t Solves = 0;
  int64_t Steps = 0;
};

/// Fills EarliestSlot/LatestSlot/CommLevel of \p E and appends the candidate
/// slot range to \p CandOut (cleared first). The caller copies the list into
/// the plan's slot storage (CommPlan::Mem) — both Candidates and
/// OriginalCandidates start as copies of it. The work done is added to
/// \p Work.
void analyzeEntryPlacement(const AnalysisContext &Ctx, CommEntry &E,
                           const PlacementOptions &Opts,
                           std::vector<Slot> &CandOut, RangeWork &Work);
/// The same, discarding the work tally.
void analyzeEntryPlacement(const AnalysisContext &Ctx, CommEntry &E,
                           const PlacementOptions &Opts,
                           std::vector<Slot> &CandOut);

/// The Earliest(u) computation (Figure 8 / Claim 4.1, via dependence-source
/// barriers — see the implementation note in EarliestLatest.cpp); exposed
/// for unit tests and the benchmark's per-layer timing.
Slot computeEarliestSlot(const AnalysisContext &Ctx, const CommEntry &E,
                         RangeWork &Work);
Slot computeEarliestSlot(const AnalysisContext &Ctx, const CommEntry &E);

// --- Reference implementation (oracle-test support) -----------------------

/// analyzeEntryPlacement with Latest(u) taken over the enumerated reaching
/// defs (Ssa::collectReachingRegularDefs) and Earliest(u) from a walk that
/// follows every phi parameter back to ENTRY. The engine never calls it;
/// the range-analysis oracle test checks the indexed analysis against it,
/// as the randomized dominance test checks DomTree against its linear
/// reference versions.
void analyzeEntryPlacementReference(const AnalysisContext &Ctx, CommEntry &E,
                                    const PlacementOptions &Opts,
                                    std::vector<Slot> &CandOut,
                                    RangeWork &Work);

} // namespace gca

#endif // GCA_CORE_EARLIESTLATEST_H
