//===- analysis/AvailDataflow.h - Must-availability verifier ----*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dataflow half of the translation-validation layer: a forward
/// *must-availability* analysis over the augmented CFG that independently
/// re-derives, per program point, which (array, section, mapping) facts a
/// communication plan makes available — and checks the paper's correctness
/// claims (4.1/4.7) as genuine all-paths dataflow properties rather than
/// dominance projections of them.
///
/// One fact is tracked per non-reduction plan entry: "the section this
/// entry's serving group communicates is available". Facts are GENned at the
/// group's placement slot (only when the group's descriptors actually cover
/// the entry's section — a shrunk descriptor never generates), and KILLed by
///
///  - SSA definitions of the array with a feasible loop-independent flow
///    dependence into the entry's use (the written elements overlap the
///    communicated section), killing at the slot after the definition;
///  - dependences carried by a loop at level L, killing on the back edge of
///    that loop (the data changes between iterations, so a communication
///    outside the loop is stale from iteration 2 on — while one at the
///    header top legally re-fires each iteration first);
///  - structurally, the back edges of every loop enclosing the placement
///    (the descriptor is parameterized by those loop variables, so it names
///    different elements each iteration), and every program point whose loop
///    chain the placement's chain does not prefix (the descriptor's
///    variables are out of scope there).
///
/// The meet is intersection; two domains separate the checker families: the
/// *reach* domain (GEN + structural kills) answers "did the communication
/// fire on every path", and the *avail* domain (+ dependence kills) answers
/// "and is it still fresh". A use whose fact fails in reach is an
/// avail-coverage violation; one that reaches but is not avail is an
/// avail-freshness violation; the same checks on SubsumedBy-eliminated
/// entries report avail-redundancy. Each domain is solved on its first
/// query: every check reads avail, and reach is read only to classify a
/// failed avail query, so a clean plan never solves reach.
///
/// Unlike a dominator-tree check, the CFG fixed point is path-sensitive
/// across disjoint IF arms for free: a definition inside one branch only
/// kills along that branch, with no branch-signature machinery.
///
/// Shares no code with core/Placement or core/EarliestLatest: only the IR,
/// the CFG, the section algebra, and DepTester (the primitives both sides
/// may use).
///
//===----------------------------------------------------------------------===//

#ifndef GCA_ANALYSIS_AVAILDATAFLOW_H
#define GCA_ANALYSIS_AVAILDATAFLOW_H

#include "analysis/IrVerify.h"

#include <memory>

namespace gca {

/// The availability fixed point of one plan over one routine's CFG.
/// Construction builds the GEN/KILL tables; check() runs the three dataflow
/// checker families, solving each domain the first time it queries it. Not
/// safe to use from two threads at once.
class AvailDataflow {
public:
  AvailDataflow(const AnalysisContext &Ctx, const CommPlan &Plan);
  ~AvailDataflow();
  AvailDataflow(const AvailDataflow &) = delete;
  AvailDataflow &operator=(const AvailDataflow &) = delete;

  /// Runs the avail-coverage / avail-freshness / avail-redundancy checker
  /// families, appending violations to \p Report and bumping its Facts /
  /// Checks counters.
  void check(VerifyReport &Report) const;

  /// Number of availability facts tracked (one per non-reduction entry with
  /// a resolvable serving group).
  int numFacts() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// The complete verifier: structural IR checks (verifyIr), plan
/// cross-reference integrity (verifyPlanIntegrity), combining legality under
/// \p Opts (verifyCombineLegality), and the availability dataflow families,
/// in one report. Exports `verify.dataflow-facts`, `verify.checks`, and
/// `verify.violations` through \p Opts.Stats; when \p Diags is non-null
/// every violation is additionally reported as an error at the offending
/// use.
VerifyReport verifyPlan(const AnalysisContext &Ctx, const CommPlan &Plan,
                        const PlacementOptions &Opts,
                        DiagEngine *Diags = nullptr);

/// verifyCombineLegality alone, in a report of its own. Its only caller is
/// perfbench's layer sweep (perfbench/harness/Batch.cpp), which times it as
/// `analysis.audit`; it exports no counters.
VerifyReport auditPlan(const AnalysisContext &Ctx, const CommPlan &Plan,
                       const PlacementOptions &Opts);

} // namespace gca

#endif // GCA_ANALYSIS_AVAILDATAFLOW_H
