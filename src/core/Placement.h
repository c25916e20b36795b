//===- core/Placement.h - Global communication placement --------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top of the paper's algorithm (Section 4): detection, placement-range
/// analysis, subset elimination (4.5), global redundancy elimination (4.6,
/// Figure 9(f)), greedy candidate choice and message combining (4.7, Figure
/// 9(g)), and final latest-common-position group placement — plus the two
/// baseline strategies of the evaluation (message vectorization only, and
/// earliest-placement redundancy elimination) and an exhaustive optimal
/// placer for the Section 6.1 ablation.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_CORE_PLACEMENT_H
#define GCA_CORE_PLACEMENT_H

#include "core/CommEntry.h"
#include "core/Context.h"

namespace gca {

/// Runs the selected strategy over the routine and returns the full plan.
CommPlan planCommunication(const AnalysisContext &Ctx,
                           const PlacementOptions &Opts);

/// The number of groups Strategy::Orig forms for the routine \p Plan was
/// placed for, under the options \p Opts it was placed with, without
/// placing the routine again. Orig groups every entry at its Latest slot,
/// and detection and Latest do not depend on the strategy, except for a
/// deferred reduction's Latest; Orig never joins a reduction, so running
/// Orig's grouping over \p Plan's own entries gives Orig's exact count.
int origGroupCount(const AnalysisContext &Ctx, const CommPlan &Plan,
                   const PlacementOptions &Opts);

/// Estimated per-processor message bytes for one descriptor placed at
/// nesting level \p Level (used for the 20 KB combining threshold).
int64_t estimatePerProcBytes(const AnalysisContext &Ctx, const Asd &A,
                             int NumProcs);

} // namespace gca

#endif // GCA_CORE_PLACEMENT_H
