//===- analysis/IrVerify.h - Structural IR/plan verifier --------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structural half of the translation-validation layer: re-checks the
/// well-formedness invariants every analysis assumes but none re-derives —
/// augmented-CFG shape (preheader/header/postexit triples, the zero-trip
/// edge, edge symmetry, slot numbering), array-SSA form (one ENTRY pseudo-def
/// per variable, single def per statement, phi arity, same-variable
/// parameters), and communication-plan cross-reference integrity (dense ids,
/// member/attached/GroupId agreement, in-range slots, SubsumedBy chain
/// acyclicity, section variables in scope at the placement point, decision-
/// log consistency). The dataflow half lives in analysis/AvailDataflow.h.
///
/// The combining rule of Section 4.7 (combine-legality) is checked here
/// too, but only on final plans: it needs the PlacementOptions the plan was
/// built under. Its size threshold is *defined* by estimatePerProcBytes over
/// asdOfEntry (core/Placement.h, core/Detect.h), so unlike every other
/// check this one calls the placement engine's own estimator instead of
/// re-deriving the quantity.
///
/// Violations are reported through the shared VerifyReport, which both
/// halves append to; rule names distinguish the layers
/// (cfg-structure/ssa-form/plan-integrity/decision-log/combine-legality
/// here, avail-coverage/avail-freshness/avail-redundancy in the dataflow).
///
//===----------------------------------------------------------------------===//

#ifndef GCA_ANALYSIS_IRVERIFY_H
#define GCA_ANALYSIS_IRVERIFY_H

#include "core/CommEntry.h"
#include "core/Context.h"
#include "support/Diag.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gca {

/// The invariant families of the translation-validation layer. The first
/// five are structural (IrVerify.cpp); the avail-* rules are the dataflow
/// checker families of AvailDataflow.cpp.
enum class VerifyRule : uint8_t {
  CfgStructure,    ///< Augmented-CFG well-formedness (Figure 7 shape).
  SsaForm,         ///< Array-SSA invariants (Section 4.1).
  PlanIntegrity,   ///< Plan cross-reference and scoping integrity.
  DecisionLog,     ///< Decision log consistent with the plan it explains.
  CombineLegality, ///< Combining rule: kinds, mappings, common position,
                   ///< size threshold (Section 4.7).
  AvailCoverage,   ///< All-paths availability of every live use's section.
  AvailFreshness,  ///< No feasible def postdates the serving communication.
  AvailRedundancy, ///< Eliminated entries are must-available at their use.
};

const char *verifyRuleName(VerifyRule Rule);

/// One violated invariant.
struct VerifyViolation {
  VerifyRule Rule;
  int EntryId = -1; ///< Plan entry concerned; -1 for IR-level findings.
  int GroupId = -1; ///< Plan group concerned; -1 when not applicable.
  SourceLoc Loc;
  std::string Message;

  std::string str() const;
};

/// The outcome of one verifier run (structural, dataflow, or both).
struct VerifyReport {
  Strategy Strat = Strategy::Global;
  /// Availability facts tracked by the dataflow (0 for structural-only runs).
  int Facts = 0;
  /// Individual invariant checks evaluated (structural probes + per-use
  /// dataflow queries).
  int Checks = 0;
  /// Work tallies for scaling tests: the nodes the availability walks
  /// visited and the dependence tests they ran (one per def and reference
  /// of a fact). str() and json() leave them out, and no counter exports
  /// them.
  int64_t WalkNodes = 0;
  int64_t DepTests = 0;
  std::vector<VerifyViolation> Violations;

  bool ok() const { return Violations.empty(); }
  std::string str() const;
  std::string json() const;
};

/// Verifies the augmented CFG and array SSA of one routine. \p G and \p S
/// must have been built from \p R. Appends to \p Report; increments
/// Report.Checks per probe.
void verifyIr(const Routine &R, const Cfg &G, const Ssa &S,
              VerifyReport &Report);

/// Verifies the cross-reference integrity of \p Plan against the IR:
/// dense entry/group ids, member/attached/GroupId agreement, slots in
/// range, Data/DataAug shape, SubsumedBy chains, descriptor variables in
/// scope at the placement point, and (when the plan carries a decision log)
/// log/plan consistency.
void verifyPlanIntegrity(const AnalysisContext &Ctx, const CommPlan &Plan,
                         VerifyReport &Report);

/// Verifies that every group of \p Plan combines legally under \p Opts: each
/// member's (and attached entry's) kind equals the group's, its mapping is
/// compatible with the group's and within reach of the group's shift, the
/// group's slot is one of each member's OriginalCandidates (the
/// latest-common-position rule), and a combined payload stays within
/// Opts.CombineThresholdBytes. Groups placed outside the CFG and member ids
/// out of range are skipped: verifyPlanIntegrity reports both.
void verifyCombineLegality(const AnalysisContext &Ctx, const CommPlan &Plan,
                           const PlacementOptions &Opts,
                           VerifyReport &Report);

} // namespace gca

#endif // GCA_ANALYSIS_IRVERIFY_H
