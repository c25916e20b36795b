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
/// fires. The mutation classes cover both halves — the availability dataflow
/// (hoist past a def, hoist out of a carrying loop, sink past the use,
/// shrink a descriptor, retarget a subsumption, widen a mapping) and the
/// structural verifier (drop a group, invalid slot, duplicate membership,
/// tampered decision log, out-of-scope descriptor variable).
///
/// A clean-plan sweep closes the loop: every strategy over every workload
/// and a bank of generator seeds must produce zero violations, so the teeth
/// shown by the mutations are not false ones.
///
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"
#include "analysis/AvailDataflow.h"
#include "analysis/PlanAudit.h"
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
  Opts.Audit = false;
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

/// Verifies the routine's plan, asserting it was clean before any mutation
/// when \p ExpectClean.
VerifyReport verify(const RoutineResult &RR) {
  return verifyPlan(*RR.Ctx, RR.Plan, PlacementOptions());
}

/// The static audit's verdict on the same plan: the audit column of the
/// catch matrix in DESIGN.md ("Translation validation").
bool auditOk(const RoutineResult &RR) {
  return auditPlan(*RR.Ctx, RR.Plan, PlacementOptions()).ok();
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
  EXPECT_FALSE(auditOk(RR));
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
  EXPECT_FALSE(auditOk(RR));
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
  EXPECT_FALSE(auditOk(RR));
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
  EXPECT_FALSE(auditOk(RR));
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
  EXPECT_FALSE(auditOk(RR));
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
  EXPECT_FALSE(auditOk(RR));
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
  EXPECT_FALSE(auditOk(RR));
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
  // No audit verdict: the auditor indexes the CFG and the dominator tree by
  // the slot's node without a bounds check, so node 9999 reads out of
  // bounds there.
}

TEST(VerifyMutation, DuplicateMembershipCaught) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_TRUE(verify(RR).ok());
  RR.Plan.Groups[0].Members.push_back(RR.Plan.Groups[0].Members[0]);

  VerifyReport V = verify(RR);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasRule(V, VerifyRule::PlanIntegrity)) << V.str();
  EXPECT_FALSE(auditOk(RR));
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
  EXPECT_TRUE(auditOk(RR)); // The audit does not read the log.
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
  EXPECT_TRUE(auditOk(RR)); // The audit does not read the log.
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
  EXPECT_FALSE(auditOk(RR));
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
      Opts.Audit = false;
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
      Opts.Audit = false;
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
