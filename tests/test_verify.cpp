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
/// use, shrink a descriptor, retarget a subsumption, widen a mapping, move
/// into one IF arm, move into a sibling loop, move a partially reduced
/// entry's subsumer past its use), the structural verifier (drop a group,
/// invalid slot, duplicate membership, broken subsumption chain,
/// inconsistent group links, tampered decision log, out-of-scope
/// descriptor variable), and the combining rule (size threshold, member
/// kind, mapping compatibility, shift reach, common position). Three
/// `PlanAudit` cases repeat dataflow mutations with a DiagEngine attached
/// and check where the error is reported.
///
/// A clean-plan sweep closes the loop: every strategy over every workload
/// and a bank of generator seeds must produce zero violations, so the teeth
/// shown by the mutations are not false ones. The walks' node and
/// dependence-test tallies pin the verifier's scaling without a clock. A
/// soundness sweep moves groups to seeded slots and requires every move
/// the availability families accept to pass element provenance.
///
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"
#include "analysis/AvailDataflow.h"
#include "driver/Compile.h"
#include "lower/Schedule.h"
#include "runtime/Verify.h"
#include "support/Stats.h"
#include "workloads/Synth.h"
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

TEST(VerifyMutation, FreshnessCitesTheKillOnTheFailingPath) {
  // kCarried with a conditional write of b(1,1) at the top of the t body.
  // Hoisted to the routine entry, the communication goes stale on the
  // path around t's back edge before it meets the IF arm, so the message
  // must name that carried kill, not the first killing def in program
  // order (the IF's write, which also kills loop-independently).
  CompileResult R = compile("program p\n"
                            "param n = 8\n"
                            "param m = 4\n"
                            "real a(n,n) distribute (block,block)\n"
                            "real b(n,n) distribute (block,block)\n"
                            "begin\n"
                            "do t = 1, m\n"
                            "  if (cond) then\n"
                            "    b(1,1) = 1\n"
                            "  end if\n"
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
                            "end\n");
  RoutineResult &RR = R.Routines[0];
  ASSERT_TRUE(verify(RR).ok());
  int EId = -1;
  for (const CommEntry &E : RR.Plan.Entries)
    if (!E.Eliminated && E.M.Kind == CommKind::Shift)
      EId = E.Id;
  ASSERT_GE(EId, 0);
  int GId = RR.Plan.Entries[EId].GroupId;
  RR.Plan.Groups[GId].Placement = RR.Ctx->G.slotAtEnd(RR.Ctx->G.entry());

  VerifyReport V = verify(RR);
  const VerifyViolation *Stale = nullptr;
  for (const VerifyViolation &Viol : V.Violations)
    if (Viol.Rule == VerifyRule::AvailFreshness && Viol.EntryId == EId)
      Stale = &Viol;
  ASSERT_NE(Stale, nullptr) << V.str();
  EXPECT_EQ(Stale->Loc.Line, 13);
  EXPECT_EQ(Stale->Loc.Col, 16);
  EXPECT_NE(Stale->Message.find("the level-1 loop carries a dependence from "
                                "the definition at 9:5"),
            std::string::npos)
      << Stale->Message;
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

TEST(VerifyMutation, PlacementInOneIfArmCaught) {
  CompileResult R = compile("program p\n"
                            "param n = 8\n"
                            "real a(n,n) distribute (block,block)\n"
                            "real b(n,n) distribute (block,block)\n"
                            "real c(n,n) distribute (block,block)\n"
                            "begin\n"
                            "if (cond) then\n"
                            "  c(1,1) = 1\n"
                            "else\n"
                            "  c(2,2) = 2\n"
                            "end if\n"
                            "do i = 2, n\n"
                            "  do j = 1, n\n"
                            "    a(i,j) = b(i-1,j)\n"
                            "  end do\n"
                            "end do\n"
                            "end\n");
  RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Groups.size(), 1u);
  ASSERT_TRUE(verify(RR).ok());
  // Move the communication into the THEN arm: the IF joins before the use,
  // and the ELSE path reaches it without the data.
  const auto *If = cast<IfStmt>(RR.R->body()[0]);
  RR.Plan.Groups[0].Placement =
      RR.Ctx->G.slotBefore(cast<AssignStmt>(If->thenBody()[0]));

  VerifyReport V = verify(RR);
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailCoverage)) << V.str();
  EXPECT_FALSE(hasRule(V, VerifyRule::AvailFreshness)) << V.str();
}

TEST(VerifyMutation, PlacementInSiblingLoopCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Groups.size(), 2u);
  ASSERT_TRUE(verify(RR).ok());
  // Move the last nest's communication into the first nest's body. That
  // loop does not enclose the use, so the descriptor is out of scope there.
  const CommEntry &First = RR.Plan.Entries[RR.Plan.Groups[0].Members[0]];
  RR.Plan.Groups[1].Placement = RR.Ctx->G.slotBefore(First.UseStmt);

  VerifyReport V = verify(RR);
  EXPECT_TRUE(hasRule(V, VerifyRule::AvailCoverage)) << V.str();
  EXPECT_FALSE(hasRule(V, VerifyRule::AvailFreshness)) << V.str();
}

TEST(VerifyMutation, SubsumerPastPartiallyReducedUseCaught) {
  // test_partial's clean overlap: the second use ships only the columns
  // the first communication does not deliver.
  CompileOptions Opts;
  Opts.Placement.Strat = Strategy::Earliest;
  Opts.Placement.PartialRedundancy = true;
  Opts.Lint = false;
  CompileResult R = compileSource("program p\n"
                                  "param n = 16\n"
                                  "real a(n,n) distribute (block,block)\n"
                                  "real b(n,n) distribute (block,block)\n"
                                  "real c(n,n) distribute (block,block)\n"
                                  "begin\n"
                                  "  a = 1\n"
                                  "  b(2:n,1:8) = a(1:n-1,1:8)\n"
                                  "  a(1:n,9:16) = b(1:n,9:16)\n"
                                  "  c(2:n,1:n) = a(1:n-1,1:n)\n"
                                  "end\n",
                                  Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  RoutineResult &RR = R.Routines[0];
  ASSERT_TRUE(verify(RR, Opts.Placement).ok());
  const DecisionEvent *Reduced = nullptr;
  for (const DecisionEvent &Ev : RR.Plan.Decisions)
    if (Ev.Kind == DecisionKind::PartiallyReduced)
      Reduced = &Ev;
  ASSERT_NE(Reduced, nullptr) << "expected a partially reduced entry";
  const CommEntry &Red = RR.Plan.Entries[Reduced->EntryId];
  int SubGroup = RR.Plan.Entries[Reduced->OtherId].GroupId;
  ASSERT_NE(SubGroup, Red.GroupId);
  // Move the subsumer's communication past the reduced use: the remainder
  // still arrives, but the rest of the use's data does not.
  RR.Plan.Groups[SubGroup].Placement = RR.Ctx->G.slotAfter(Red.UseStmt);

  VerifyReport V = verify(RR, Opts.Placement);
  EXPECT_TRUE(std::any_of(
      V.Violations.begin(), V.Violations.end(),
      [&](const VerifyViolation &Vi) {
        return Vi.Rule == VerifyRule::AvailRedundancy &&
               Vi.EntryId == Red.Id &&
               Vi.Message.find("sends only a remainder") != std::string::npos;
      }))
      << V.str();
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

TEST(VerifyClean, WalkWorkGrowsLinearlyWithTheRoutine) {
  // The nodes the availability walks visit and the dependence tests they
  // run are exact counts, so unlike a timing they pin the verifier's
  // scaling deterministically: a clean walk stays between a fact's
  // placement and its use and tests only the defs it crosses, so doubling
  // the routine must not much more than double either tally.
  struct Work {
    int64_t Nodes = 0, DepTests = 0;
  };
  auto walkWork = [](int Nests) {
    SynthSpec Spec;
    Spec.Nests = Nests;
    Spec.Seed = 1;
    CompileOptions Opts;
    Opts.Verify = VerifyMode::Final;
    Opts.Lint = false;
    CompileResult R = compileSource(synthSource(Spec), Opts);
    EXPECT_TRUE(R.Ok && R.VerifyOk) << R.Errors << R.Diagnostics;
    Work W;
    for (const RoutineResult &RR : R.Routines) {
      W.Nodes += RR.Verify.WalkNodes;
      W.DepTests += RR.Verify.DepTests;
    }
    return W;
  };
  auto ratio = [](int64_t Big, int64_t Small) {
    return static_cast<double>(Big) / static_cast<double>(Small);
  };
  Work W500 = walkWork(500);
  Work W1000 = walkWork(1000);
  Work W2000 = walkWork(2000);
  ASSERT_GT(W500.Nodes, 0);
  ASSERT_GT(W500.DepTests, 0);
  EXPECT_LE(ratio(W1000.Nodes, W500.Nodes), 2.5);
  EXPECT_LE(ratio(W2000.Nodes, W1000.Nodes), 2.5);
  EXPECT_LE(ratio(W1000.DepTests, W500.DepTests), 2.5);
  EXPECT_LE(ratio(W2000.DepTests, W1000.DepTests), 2.5);
}

//===----------------------------------------------------------------------===//
// Soundness: a plan the verifier accepts passes element provenance
//===----------------------------------------------------------------------===//

TEST(VerifySound, AcceptedPlacementMovesPassProvenance) {
  // Moves every group of small generated programs to seeded slots anywhere
  // in the routine. Whenever the availability families accept the moved
  // plan, the element-level provenance simulator (rung 3) must prove its
  // schedule safe. The other rules (decision log, combining candidates)
  // flag almost every move, so only the avail-* rules count as the
  // verdict. The floors keep the corpus from degenerating into moves that
  // every rung accepts or that nothing can check.
  auto availOk = [](const VerifyReport &V) {
    return std::none_of(V.Violations.begin(), V.Violations.end(),
                        [](const VerifyViolation &Viol) {
                          return Viol.Rule == VerifyRule::AvailCoverage ||
                                 Viol.Rule == VerifyRule::AvailFreshness ||
                                 Viol.Rule == VerifyRule::AvailRedundancy;
                        });
  };
  int Moves = 0, Accepted = 0, ProvenanceFails = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    std::string Src = generateProgram(Seed);
    for (Strategy S : {Strategy::Orig, Strategy::Earliest, Strategy::Global}) {
      CompileOptions Opts;
      Opts.Placement.Strat = S;
      Opts.Verify = VerifyMode::Off;
      Opts.Lint = false;
      CompileResult R = compileSource(Src, Opts);
      ASSERT_TRUE(R.Ok) << R.Errors;
      fuzzgen::Rng Rng(Seed * 8 + static_cast<uint64_t>(S));
      for (RoutineResult &RR : R.Routines) {
        const Cfg &G = RR.Ctx->G;
        uint64_t NumSlots = static_cast<uint64_t>(G.numSlots());
        for (CommGroup &Grp : RR.Plan.Groups) {
          Slot Home = Grp.Placement;
          for (int K = 0; K != 8; ++K) {
            Grp.Placement = G.slotOfId(static_cast<int>(Rng.next() % NumSlots));
            ++Moves;
            bool Accept = availOk(verifyPlan(*RR.Ctx, RR.Plan, Opts.Placement));
            VerifyResult P = verifySchedule(
                *RR.Ctx, RR.Plan, ExecProgram::build(*RR.Ctx, RR.Plan), 4);
            Accepted += Accept;
            ProvenanceFails += !P.Ok;
            EXPECT_TRUE(!Accept || P.Ok)
                << "seed " << Seed << " [" << strategyName(S) << "] group "
                << Grp.Id << " at (B" << Grp.Placement.Node << ","
                << Grp.Placement.Index << ")\n"
                << P.str();
          }
          Grp.Placement = Home;
        }
      }
    }
  }
  EXPECT_GE(Accepted, 500) << Moves << " moves";
  EXPECT_GE(ProvenanceFails, 1000) << Moves << " moves";
}
