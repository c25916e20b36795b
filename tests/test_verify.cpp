//===- tests/test_verify.cpp - translation-validation verifier tests ------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plan-mutation ("chaos") harness for the translation-validation layer:
/// each test compiles a program whose unmutated plan verifies clean, corrupts
/// the plan in one distinct way, and asserts the expected verifier rule
/// fires. The mutation classes cover every family — the availability
/// dataflow (hoist past a def, hoist out of a carrying loop, sink past the
/// use, shrink a descriptor, retarget a subsumption, widen a mapping), the
/// structural verifier (drop a group, invalid slot, duplicate membership,
/// broken subsumption chain, inconsistent group links, tampered decision
/// log, out-of-scope descriptor variable), and the combining rule (size
/// threshold, member kind, mapping compatibility, shift reach, common
/// position). Three `PlanAudit` cases repeat dataflow mutations with a
/// DiagEngine attached and check where the error is reported.
///
/// A clean-plan sweep closes the loop: every strategy over every workload
/// and a bank of generator seeds must produce zero violations, so the teeth
/// shown by the mutations are not false ones.
///
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"
#include "analysis/AvailDataflow.h"
#include "driver/Compile.h"
#include "support/Stats.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace gca;
using fuzzgen::generateProgram;

namespace {

CompileResult compile(const std::string &Source,
                      Strategy Strat = Strategy::Global) {
  CompileOptions Opts;
  Opts.Placement.Strat = Strat;
  Opts.Lint = false;
  CompileResult R = compileSource(Source, Opts);
  EXPECT_TRUE(R.Ok) << R.Errors;
  return R;
}

bool hasRule(const VerifyReport &R, VerifyRule Rule) {
  for (const VerifyViolation &V : R.Violations)
    if (V.Rule == Rule)
      return true;
  return false;
}

/// Verifies the routine's plan under \p Opts (default: the options the
/// plan was built under).
VerifyReport verify(const RoutineResult &RR,
                    const PlacementOptions &Opts = PlacementOptions()) {
  return verifyPlan(*RR.Ctx, RR.Plan, Opts);
}

/// The test_analysis stencil: two reads of b separated by a redefinition,
/// so the global plan has two single-member groups.
const char *kStencil = "program p\n"
                       "param n = 8\n"
                       "real a(n,n) distribute (block,block)\n"
                       "real b(n,n) distribute (block,block)\n"
                       "real c(n,n) distribute (block,block)\n"
                       "begin\n"
                       "do i = 2, n\n"
                       "  do j = 1, n\n"
                       "    a(i,j) = b(i-1,j)\n"
                       "  end do\n"
                       "end do\n"
                       "do i = 1, n\n"
                       "  do j = 1, n\n"
                       "    b(i,j) = 2\n"
                       "  end do\n"
                       "end do\n"
                       "do i = 2, n\n"
                       "  do j = 1, n\n"
                       "    c(i,j) = b(i-1,j)\n"
                       "  end do\n"
                       "end do\n"
                       "end\n";

/// A time-loop-carried dependence: b is read (nest 1) and rewritten
/// (nest 2) every iteration of t, so the communication must fire inside
/// loop t each iteration — but the communicated section itself is t-free,
/// so hoisting it out of the loop leaves the descriptor perfectly in scope
/// and only the carried-dependence kill can catch the staleness.
const char *kCarried = "program p\n"
                       "param n = 8\n"
                       "param m = 4\n"
                       "real a(n,n) distribute (block,block)\n"
                       "real b(n,n) distribute (block,block)\n"
                       "begin\n"
                       "do t = 1, m\n"
                       "  do i = 2, n\n"
                       "    do j = 1, n\n"
                       "      a(i,j) = b(i-1,j)\n"
                       "    end do\n"
                       "  end do\n"
                       "  do i = 1, n\n"
                       "    do j = 1, n\n"
                       "      b(i,j) = a(i,j)\n"
                       "    end do\n"
                       "  end do\n"
                       "end do\n"
                       "end\n";

/// Two identical reads of b with no redefinition: the global strategy
/// eliminates the second entry through SubsumedBy. The middle nest
/// redefines d, pinning d's communication after it — so the d group cannot
/// merge with the b group and the plan keeps a second, unrelated group to
/// retarget things at.
const char *kRedundant = "program p\n"
                         "param n = 8\n"
                         "real a(n,n) distribute (block,block)\n"
                         "real b(n,n) distribute (block,block)\n"
                         "real c(n,n) distribute (block,block)\n"
                         "real d(n,n) distribute (block,block)\n"
                         "begin\n"
                         "do i = 2, n\n"
                         "  do j = 1, n\n"
                         "    a(i,j) = b(i-1,j)\n"
                         "  end do\n"
                         "end do\n"
                         "do i = 1, n\n"
                         "  do j = 1, n\n"
                         "    d(i,j) = 1\n"
                         "  end do\n"
                         "end do\n"
                         "do i = 2, n\n"
                         "  do j = 1, n\n"
                         "    c(i,j) = b(i-1,j) + d(i-1,j)\n"
                         "  end do\n"
                         "end do\n"
                         "end\n";

/// The eliminated entry of \p Plan (asserting exactly one exists).
int eliminatedEntry(const CommPlan &Plan) {
  for (const CommEntry &E : Plan.Entries)
    if (E.Eliminated)
      return E.Id;
  return -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Mutation classes: the dataflow half
//===----------------------------------------------------------------------===//

TEST(VerifyMutation, HoistPastDefCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Groups.size(), 2u);
  ASSERT_TRUE(verify(RR).ok());
  // Hoist the second read's communication to the first one's placement,
  // before the redefinition of b: every path now reads stale data.
  RR.Plan.Groups[1].Placement = RR.Plan.Groups[0].Placement;

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailFreshness)) << V.str();
}

TEST(VerifyMutation, HoistOutOfCarryingLoopCaught) {
  CompileResult R = compile(kCarried);
  RoutineResult &RR = R.Routines[0];
  ASSERT_GE(RR.Plan.Groups.size(), 1u);
  ASSERT_TRUE(verify(RR).ok());
  // The communication for b(i-1,j) legally sits inside loop t (nest 2
  // rewrites b every iteration). Hoist it to the routine entry: its t-free
  // descriptor is still in scope there, but from iteration 2 on the data
  // is stale — only the carried-dependence back-edge kill can see it.
  int GId = -1;
  for (const CommEntry &E : RR.Plan.Entries)
    if (!E.Eliminated && E.M.Kind == CommKind::Shift)
      GId = E.GroupId;
  ASSERT_GE(GId, 0);
  ASSERT_GE(RR.Ctx->slotLevel(RR.Plan.Groups[GId].Placement), 1)
      << "expected an in-loop placement to hoist";
  RR.Plan.Groups[GId].Placement = RR.Ctx->G.slotAtEnd(RR.Ctx->G.entry());

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailFreshness)) << V.str();
  EXPECT_FALSE(hasRule(V, VerifyRule::AvailCoverage)) << V.str();
}

TEST(VerifyMutation, SinkPastUseCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_TRUE(verify(RR).ok());
  // Move the first communication to just after its use: no path has the
  // data when the use executes.
  const CommEntry &E = RR.Plan.Entries[RR.Plan.Groups[0].Members[0]];
  RR.Plan.Groups[0].Placement = RR.Ctx->G.slotAfter(E.UseStmt);

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailCoverage)) << V.str();
}

TEST(VerifyMutation, ShrunkSectionCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_FALSE(RR.Plan.Groups[0].Data.empty());
  ASSERT_TRUE(verify(RR).ok());
  // Shrink the communicated descriptor to one element: the GEN no longer
  // covers the use's section, so the fact is never generated.
  RegSection One(
      std::vector<SecDim>{SecDim::single(AffineExpr::constant(1)),
                          SecDim::single(AffineExpr::constant(1))});
  RR.Plan.Groups[0].Data[0].D = One;

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailCoverage)) << V.str();
}

TEST(VerifyMutation, RetargetedSubsumptionCaught) {
  CompileResult R = compile(kRedundant);
  RoutineResult &RR = R.Routines[0];
  int EId = eliminatedEntry(RR.Plan);
  ASSERT_GE(EId, 0) << "expected a SubsumedBy-eliminated entry";
  ASSERT_TRUE(verify(RR).ok());
  CommEntry &E = RR.Plan.Entries[EId];
  // Re-attach the eliminated entry to a group of a *different* array: the
  // group it now claims to ride on communicates nothing it needs.
  int NewG = -1;
  for (const CommGroup &Grp : RR.Plan.Groups)
    if (Grp.Id != E.GroupId &&
        !std::any_of(Grp.Data.begin(), Grp.Data.end(), [&](const Asd &A) {
          return A.ArrayId == E.ArrayId;
        }))
      NewG = Grp.Id;
  ASSERT_GE(NewG, 0) << "expected a group of another array";
  CommGroup &Old = RR.Plan.Groups[E.GroupId];
  Old.Attached.erase(
      std::find(Old.Attached.begin(), Old.Attached.end(), EId));
  RR.Plan.Groups[NewG].Attached.push_back(EId);
  E.GroupId = NewG;

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailRedundancy)) << V.str();
}

TEST(VerifyMutation, WidenedMappingCaught) {
  CompileResult R = compile(kRedundant);
  RoutineResult &RR = R.Routines[0];
  int EId = eliminatedEntry(RR.Plan);
  ASSERT_GE(EId, 0);
  ASSERT_TRUE(verify(RR).ok());
  // Widen the eliminated entry's shift: the serving group's mapping no
  // longer reaches every receiver the dropped message would have served
  // (the M1(D1) subset-of M2(D1) test of Section 4.6 fails).
  CommEntry &E = RR.Plan.Entries[EId];
  ASSERT_FALSE(E.M.Offsets.empty());
  for (int64_t &O : E.M.Offsets)
    O += 3;

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailRedundancy)) << V.str();
}

//===----------------------------------------------------------------------===//
// Mutation classes: the structural half
//===----------------------------------------------------------------------===//

TEST(VerifyMutation, DroppedGroupCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Groups.size(), 2u);
  ASSERT_TRUE(verify(RR).ok());
  // Drop the last group wholesale: its member now dangles, and the decision
  // log still talks about a group the plan does not have.
  RR.Plan.Groups.pop_back();

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::PlanIntegrity)) << V.str();
  EXPECT_TRUE(hasRule(V, VerifyRule::DecisionLog)) << V.str();
}

TEST(VerifyMutation, InvalidSlotCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_TRUE(verify(RR).ok());
  RR.Plan.Groups[0].Placement = Slot{9999, 3};

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  // Both halves see it: the slot is structurally absent, and the dataflow
  // treats the group as never firing.
  EXPECT_TRUE(hasRule(V, VerifyRule::PlanIntegrity)) << V.str();
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailCoverage)) << V.str();
}

TEST(VerifyMutation, DuplicateMembershipCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_TRUE(verify(RR).ok());
  RR.Plan.Groups[0].Members.push_back(RR.Plan.Groups[0].Members[0]);

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::PlanIntegrity)) << V.str();
}

TEST(VerifyMutation, TamperedDecisionLogCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_TRUE(verify(RR).ok());
  // Rewrite a GroupPlaced record to a different slot: the log no longer
  // explains the plan.
  bool Tampered = false;
  for (DecisionEvent &Ev : RR.Plan.Decisions)
    if (Ev.Kind == DecisionKind::GroupPlaced) {
      ++Ev.Where.Index;
      Tampered = true;
      break;
    }
  ASSERT_TRUE(Tampered);

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::DecisionLog)) << V.str();
}

TEST(VerifyMutation, ErasedEliminationEventCaught) {
  CompileResult R = compile(kRedundant);
  RoutineResult &RR = R.Routines[0];
  ASSERT_GE(eliminatedEntry(RR.Plan), 0);
  ASSERT_TRUE(verify(RR).ok());
  // Drop every RedundancyEliminated record: an eliminated entry without an
  // explaining event is a hole in the log.
  auto &D = RR.Plan.Decisions;
  D.erase(std::remove_if(D.begin(), D.end(),
                         [](const DecisionEvent &Ev) {
                           return Ev.Kind ==
                                  DecisionKind::RedundancyEliminated;
                         }),
          D.end());

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::DecisionLog)) << V.str();
}

TEST(VerifyMutation, OutOfScopeDescriptorVarCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_FALSE(RR.Plan.Groups[0].Data.empty());
  ASSERT_TRUE(verify(RR).ok());
  // Parameterize the group's descriptor by a loop variable that is not in
  // scope at its (loop-level-0) placement point.
  int IVar = -1;
  for (size_t V = 0; V != RR.Ctx->R.loopVarNames().size(); ++V)
    if (RR.Ctx->varLoop(static_cast<int>(V)))
      IVar = static_cast<int>(V);
  ASSERT_GE(IVar, 0);
  ASSERT_EQ(RR.Ctx->slotLevel(RR.Plan.Groups[0].Placement), 0)
      << "expected a top-level placement";
  RR.Plan.Groups[0].Data[0].D.dim(0).Lo = AffineExpr::var(IVar);

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::PlanIntegrity)) << V.str();
}

TEST(VerifyMutation, BrokenSubsumptionChainRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_TRUE(verify(RR).ok());
  // Fake an elimination with no surviving subsumer: the entry leaves its
  // group, which is left empty, and resolves nowhere.
  CommEntry &E = RR.Plan.Entries[RR.Plan.Groups[0].Members[0]];
  RR.Plan.Groups[0].Members.clear();
  E.Eliminated = true;
  E.SubsumedBy = -1;
  E.GroupId = -1;

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::PlanIntegrity)) << V.str();
}

TEST(VerifyMutation, InconsistentGroupLinksRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Groups.size(), 2u);
  ASSERT_TRUE(verify(RR).ok());
  // A member whose back-pointer names another group.
  RR.Plan.Entries[RR.Plan.Groups[0].Members[0]].GroupId = 1;

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::PlanIntegrity)) << V.str();
}

//===----------------------------------------------------------------------===//
// Plan audit: corrupted plans are rejected with located diagnostics
//===----------------------------------------------------------------------===//

namespace {

/// Verifies \p RR with a DiagEngine attached and expects \p Rule to fire for
/// entry \p EntryId, reported as an error at source line \p Line.
void expectLocatedViolation(const RoutineResult &RR, VerifyRule Rule,
                            int EntryId, int Line) {
  DiagEngine Diags;
  VerifyReport V = verifyPlan(*RR.Ctx, RR.Plan, PlacementOptions(), &Diags);
  EXPECT_FALSE(V.ok());
  bool InReport = false;
  for (const VerifyViolation &Viol : V.Violations)
    InReport |= Viol.Rule == Rule && Viol.EntryId == EntryId &&
                Viol.Loc.Line == Line;
  EXPECT_TRUE(InReport) << V.str();
  std::string Tag =
      std::string("plan verify [") + verifyRuleName(Rule) + "]";
  bool Reported = false;
  for (const Diag &D : Diags.diags())
    Reported |= D.Kind == DiagKind::Error && D.Loc.Line == Line &&
                D.Message.find(Tag) != std::string::npos;
  EXPECT_TRUE(Reported) << Diags.str();
}

} // namespace

TEST(PlanAudit, PlacementPastUseRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_GE(RR.Plan.Groups.size(), 2u);
  // Move the first communication to just after its use (line 9,
  // a(i,j) = b(i-1,j)): the error names that use.
  const CommEntry &E = RR.Plan.Entries[RR.Plan.Groups[0].Members[0]];
  RR.Plan.Groups[0].Placement = RR.Ctx->G.slotAfter(E.UseStmt);
  expectLocatedViolation(RR, VerifyRule::AvailCoverage, E.Id, 9);
}

TEST(PlanAudit, PlacementBeforeInterveningDefRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Groups.size(), 2u);
  // Hoist the second read's communication to the first one's placement,
  // before the redefinition of b: the stale read is the second use
  // (line 19, c(i,j) = b(i-1,j)), not the first.
  RR.Plan.Groups[1].Placement = RR.Plan.Groups[0].Placement;
  int Second = RR.Plan.Groups[1].Members[0];
  expectLocatedViolation(RR, VerifyRule::AvailFreshness, Second, 19);
}

TEST(PlanAudit, DataNotCoveringEntryRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_FALSE(RR.Plan.Groups[0].Data.empty());
  // Shrink the first group's communicated section to a single element: the
  // use on line 9 is left uncovered.
  RegSection One(
      std::vector<SecDim>{SecDim::single(AffineExpr::constant(1)),
                          SecDim::single(AffineExpr::constant(1))});
  RR.Plan.Groups[0].Data[0].D = One;
  expectLocatedViolation(RR, VerifyRule::AvailCoverage,
                         RR.Plan.Groups[0].Members[0], 9);
}

//===----------------------------------------------------------------------===//
// Mutation classes: the combining rule
//===----------------------------------------------------------------------===//

namespace {

/// Two same-shift reads of different arrays in one nest: the global
/// strategy combines them into one two-member group.
const char *kCombined = "program p\n"
                        "param n = 8\n"
                        "real a(n,n) distribute (block,block)\n"
                        "real b(n,n) distribute (block,block)\n"
                        "real c(n,n) distribute (block,block)\n"
                        "real d(n,n) distribute (block,block)\n"
                        "begin\n"
                        "do i = 2, n\n"
                        "  do j = 1, n\n"
                        "    a(i,j) = b(i-1,j)\n"
                        "    c(i,j) = d(i-1,j)\n"
                        "  end do\n"
                        "end do\n"
                        "end\n";

/// The first group of \p Plan with two or more members, or -1.
int combinedGroup(const CommPlan &Plan) {
  for (const CommGroup &G : Plan.Groups)
    if (G.Members.size() >= 2)
      return G.Id;
  return -1;
}

/// Compiles kCombined and returns its combined group's id, asserting the
/// unmutated plan verifies clean.
int compileCombined(CompileResult &R) {
  R = compile(kCombined);
  const RoutineResult &RR = R.Routines[0];
  int GId = combinedGroup(RR.Plan);
  EXPECT_GE(GId, 0) << "expected a combined group";
  EXPECT_TRUE(verify(RR).ok());
  return GId;
}

} // namespace

TEST(VerifyMutation, CombiningOverThresholdRejected) {
  CompileResult R;
  int GId = compileCombined(R);
  ASSERT_GE(GId, 0);
  const RoutineResult &RR = R.Routines[0];
  // The plan was built under the 20 KB threshold; verified under a 1-byte
  // one, its combined group is too large.
  PlacementOptions Tiny;
  Tiny.CombineThresholdBytes = 1;
  VerifyReport V = verify(RR, Tiny);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::CombineLegality)) << V.str();
}

TEST(VerifyMutation, CombinedKindMismatchRejected) {
  CompileResult R;
  int GId = compileCombined(R);
  ASSERT_GE(GId, 0);
  RoutineResult &RR = R.Routines[0];
  // A member that is no longer a shift, in a shift group.
  RR.Plan.Entries[RR.Plan.Groups[GId].Members[0]].M.Kind = CommKind::General;

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::CombineLegality)) << V.str();
}

TEST(VerifyMutation, CombinedIncompatibleMappingRejected) {
  CompileResult R;
  int GId = compileCombined(R);
  ASSERT_GE(GId, 0);
  RoutineResult &RR = R.Routines[0];
  // Reverse a member's shift direction: same kind and reach, but the
  // sender-receiver relation differs from the group's (Section 4.7).
  Mapping &M = RR.Plan.Entries[RR.Plan.Groups[GId].Members[0]].M;
  bool Flipped = false;
  for (int64_t &O : M.Offsets)
    if (O != 0) {
      O = -O;
      Flipped = true;
    }
  ASSERT_TRUE(Flipped);

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::CombineLegality)) << V.str();
}

TEST(VerifyMutation, CombinedShiftPastGroupRejected) {
  CompileResult R;
  int GId = compileCombined(R);
  ASSERT_GE(GId, 0);
  RoutineResult &RR = R.Routines[0];
  // Widen a member's shift past the group's: same direction, so the
  // mappings stay compatible, but the group's overlap no longer reaches it.
  const Mapping &GM = RR.Plan.Groups[GId].M;
  Mapping &M = RR.Plan.Entries[RR.Plan.Groups[GId].Members[0]].M;
  bool Widened = false;
  for (size_t K = 0; K < M.Offsets.size() && K < GM.Offsets.size(); ++K)
    if (GM.Offsets[K] != 0) {
      M.Offsets[K] = 2 * GM.Offsets[K];
      Widened = true;
    }
  ASSERT_TRUE(Widened);

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::CombineLegality)) << V.str();
}

TEST(VerifyMutation, CombinedSlotNotCandidateRejected) {
  CompileResult R;
  int GId = compileCombined(R);
  ASSERT_GE(GId, 0);
  RoutineResult &RR = R.Routines[0];
  // Drop the group's slot from a member's original placement range: the
  // group no longer sits at a position common to all its members.
  Slot P = RR.Plan.Groups[GId].Placement;
  SlotSpan &Cands =
      RR.Plan.Entries[RR.Plan.Groups[GId].Members[0]].OriginalCandidates;
  ASSERT_NE(std::find(Cands.begin(), Cands.end(), P), Cands.end());
  Cands.removeValue(P);

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::CombineLegality)) << V.str();
}

//===----------------------------------------------------------------------===//
// Clean plans: zero violations across strategies, workloads, and seeds
//===----------------------------------------------------------------------===//

namespace {

const Strategy kAllStrategies[] = {Strategy::Orig, Strategy::Earliest,
                                   Strategy::Global,
                                   Strategy::EarliestCombine,
                                   Strategy::Optimal};

} // namespace

TEST(VerifyClean, AllWorkloadsAllStrategiesPass) {
  for (const Workload *W : allWorkloads()) {
    for (Strategy S : kAllStrategies) {
      CompileOptions Opts;
      Opts.Placement.Strat = S;
      CompileResult R = compileSource(W->Source, Opts);
      ASSERT_TRUE(R.Ok) << W->Name << ": " << R.Errors;
      for (const RoutineResult &RR : R.Routines) {
        VerifyReport V = verifyPlan(*RR.Ctx, RR.Plan, Opts.Placement);
        EXPECT_TRUE(V.ok()) << W->Name << " [" << strategyName(S) << "]\n"
                            << V.str();
        EXPECT_GT(V.Checks, 0);
      }
    }
  }
}

TEST(VerifyClean, GeneratedProgramsPass) {
  // 20 generator seeds (disjoint from the fuzz tier's 1..120) x 5
  // strategies, with the extension options rotating like the fuzz harness
  // rotates them.
  for (uint64_t Seed = 200; Seed != 220; ++Seed) {
    std::string Src = generateProgram(Seed);
    SCOPED_TRACE(Src);
    for (Strategy S : kAllStrategies) {
      CompileOptions Opts;
      Opts.Placement.Strat = S;
      Opts.Placement.DeferReductions = Seed % 3 == 0;
      Opts.Placement.PartialRedundancy = Seed % 4 == 0;
      Opts.FuseLoops = Seed % 5 == 0;
      CompileResult R = compileSource(Src, Opts);
      ASSERT_TRUE(R.Ok) << R.Errors;
      for (const RoutineResult &RR : R.Routines) {
        VerifyReport V = verifyPlan(*RR.Ctx, RR.Plan, Opts.Placement);
        EXPECT_TRUE(V.ok()) << "[" << strategyName(S) << "] seed "
                            << Seed << "\n"
                            << V.str();
      }
    }
  }
}

TEST(VerifyClean, ReportRendersAndCounts) {
  CompileResult R = compile(kStencil);
  const RoutineResult &RR = R.Routines[0];
  PlacementOptions Opts;
  StatsRegistry Stats;
  Opts.Stats = &Stats;
  VerifyReport V = verifyPlan(*RR.Ctx, RR.Plan, Opts);
  EXPECT_TRUE(V.ok());
  EXPECT_EQ(V.Facts, 2);
  EXPECT_GT(V.Checks, 0);
  EXPECT_NE(V.str().find("PASS"), std::string::npos);
  EXPECT_NE(V.json().find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(Stats.get("verify.dataflow-facts"), 2);
  EXPECT_EQ(Stats.get("verify.violations"), 0);
  EXPECT_EQ(Stats.get("verify.checks"), V.Checks);
}

TEST(VerifyClean, ViolationReportIsMachineReadable) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  const CommEntry &E = RR.Plan.Entries[RR.Plan.Groups[0].Members[0]];
  RR.Plan.Groups[0].Placement = RR.Ctx->G.slotAfter(E.UseStmt);
  DiagEngine Diags;
  VerifyReport V = verifyPlan(*RR.Ctx, RR.Plan, PlacementOptions(), &Diags);
  ASSERT_FALSE(V.ok());
  EXPECT_NE(V.json().find("\"ok\":false"), std::string::npos);
  EXPECT_NE(V.json().find("\"rule\":\"avail-coverage\""), std::string::npos)
      << V.json();
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("plan verify [avail-coverage]"),
            std::string::npos)
      << Diags.str();
  // The dataflow violations carry the offending use's source location.
  bool HasLoc = false;
  for (const Diag &D : Diags.diags())
    HasLoc |= D.Loc.isValid();
  EXPECT_TRUE(HasLoc) << Diags.str();
}
