//===- analysis/CommLint.h - Communication lint rules -----------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// User-facing communication lints built on the same analyses the placer
/// uses. Each rule emits DiagEngine warnings tagged [rule-name]:
///
///  - [undistributed-array]: an undistributed (replicated) array is
///    referenced inside a loop that distributes work across processors, so
///    the reference is replicated on every processor.
///  - [innermost-comm]: a communication is pinned inside the innermost loop
///    of its use (message vectorization is impossible); cites the blocking
///    definition.
///  - [subscript-out-of-range]: an affine subscript can statically exceed
///    the array's declared extent under the enclosing loop bounds.
///  - [unused-array]: an array is declared (and possibly distributed) but
///    never referenced.
///  - [no-comm-benefit]: the routine's plan is no better than plain message
///    vectorization — nothing was eliminated or combined, suggesting the
///    loop structure blocks the global optimizations.
///  - [dead-comm]: a placed communication is partially dead — lint's own
///    walk over the CFG found a genuine path from its placement to the
///    routine exit on which no served use reads the data (typically an IF
///    arm that skips every use).
///
/// The rules read the routine's context and its plan, nothing else: lint
/// neither solves the verifier's dataflow nor places the routine again.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_ANALYSIS_COMMLINT_H
#define GCA_ANALYSIS_COMMLINT_H

#include "core/CommEntry.h"
#include "core/Context.h"
#include "support/Diag.h"

#include <optional>

namespace gca {

/// Runs every lint rule over one analyzed routine. \p Plan is the plan the
/// compilation produced; \p OrigGroups optionally supplies the number of
/// groups plain message vectorization (Strategy::Orig) forms for the same
/// routine (origGroupCount, core/Placement.h), enabling the
/// [no-comm-benefit] rule. \returns the number of warnings emitted.
int lintRoutine(const AnalysisContext &Ctx, const CommPlan &Plan,
                std::optional<int> OrigGroups, DiagEngine &Diags);

} // namespace gca

#endif // GCA_ANALYSIS_COMMLINT_H
