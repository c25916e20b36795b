//===- tests/test_analysis.cpp - plan auditor + lint tests ----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the static analysis subsystem: one golden-output positive test
/// and one negative test per lint rule (exact DiagEngine::str() text), audit
/// clean-pass coverage over every workload and strategy, and
/// corrupted-plan tests proving each audit invariant family rejects a broken
/// plan with a located diagnostic.
///
//===----------------------------------------------------------------------===//

#include "analysis/AvailDataflow.h"
#include "analysis/CommLint.h"
#include "analysis/PlanAudit.h"
#include "driver/Compile.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gca;

namespace {

/// Compiles \p Source (already element-wise; scalarization is a no-op) and
/// returns the result, asserting success.
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

/// Runs the lint rules over the first routine and returns the rendered
/// diagnostics (no baseline plan: the [no-comm-benefit] rule stays off).
std::string lint(const std::string &Source) {
  CompileResult R = compile(Source);
  DiagEngine Diags;
  lintRoutine(*R.Routines[0].Ctx, R.Routines[0].Plan, nullptr, Diags);
  return Diags.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Lint golden-output tests
//===----------------------------------------------------------------------===//

TEST(CommLint, UndistributedArrayWarns) {
  std::string Out = lint("program p\n"
                         "param n = 8\n"
                         "real a(n,n) distribute (block,block)\n"
                         "real w(n,n)\n"
                         "begin\n"
                         "do i = 2, n\n"
                         "  do j = 2, n\n"
                         "    a(i,j) = w(i,j) + a(i-1,j)\n"
                         "  end do\n"
                         "end do\n"
                         "end\n");
  EXPECT_EQ(Out, "warning: 8:14: undistributed array 'w' referenced inside "
                 "distributed loop 'j'; the access is replicated on every "
                 "processor [undistributed-array]\n");
}

TEST(CommLint, UndistributedArrayNegative) {
  // Same program with w distributed: no warning.
  EXPECT_EQ(lint("program p\n"
                 "param n = 8\n"
                 "real a(n,n) distribute (block,block)\n"
                 "real w(n,n) distribute (block,block)\n"
                 "begin\n"
                 "do i = 2, n\n"
                 "  do j = 2, n\n"
                 "    a(i,j) = w(i,j) + a(i-1,j)\n"
                 "  end do\n"
                 "end do\n"
                 "end\n"),
            "");
}

TEST(CommLint, InnermostCommWarns) {
  std::string Out = lint("program p\n"
                         "param n = 8\n"
                         "real a(n,n) distribute (block,block)\n"
                         "begin\n"
                         "do i = 2, n\n"
                         "  do j = 2, n\n"
                         "    a(i,j) = a(i,j-1) + 1\n"
                         "  end do\n"
                         "end do\n"
                         "end\n");
  EXPECT_EQ(Out, "warning: 7:14: communication for 'a' cannot be vectorized: "
                 "the definition at 7:5 pins it inside the innermost loop "
                 "'j' [innermost-comm]\n");
}

TEST(CommLint, InnermostCommNegative) {
  // The dependence is carried by the outer loop: the inner loop's messages
  // vectorize, so the rule must stay quiet.
  EXPECT_EQ(lint("program p\n"
                 "param n = 8\n"
                 "real a(n,n) distribute (block,block)\n"
                 "begin\n"
                 "do i = 2, n\n"
                 "  do j = 2, n\n"
                 "    a(i,j) = a(i-1,j) + 1\n"
                 "  end do\n"
                 "end do\n"
                 "end\n"),
            "");
}

TEST(CommLint, SubscriptOutOfRangeWarns) {
  std::string Out = lint("program p\n"
                         "param n = 8\n"
                         "real a(n,n) distribute (block,block)\n"
                         "real b(n,n) distribute (block,block)\n"
                         "begin\n"
                         "do i = 1, n\n"
                         "  do j = 1, n\n"
                         "    a(i,j) = b(i+1,j)\n"
                         "  end do\n"
                         "end do\n"
                         "end\n");
  EXPECT_EQ(Out, "warning: 8:14: subscript 1 of 'b' can reach 9, outside "
                 "the declared bounds 1:8 [subscript-out-of-range]\n");
}

TEST(CommLint, SubscriptOutOfRangeNegative) {
  // The loop bounds keep i+1 inside the declared extent.
  EXPECT_EQ(lint("program p\n"
                 "param n = 8\n"
                 "real a(n,n) distribute (block,block)\n"
                 "real b(n,n) distribute (block,block)\n"
                 "begin\n"
                 "do i = 1, n-1\n"
                 "  do j = 1, n\n"
                 "    a(i,j) = b(i+1,j)\n"
                 "  end do\n"
                 "end do\n"
                 "end\n"),
            "");
}

TEST(CommLint, UnusedArrayWarns) {
  std::string Out = lint("program p\n"
                         "param n = 8\n"
                         "real a(n,n) distribute (block,block)\n"
                         "real dead(n,n) distribute (block,block)\n"
                         "begin\n"
                         "do i = 1, n\n"
                         "  do j = 1, n\n"
                         "    a(i,j) = 1\n"
                         "  end do\n"
                         "end do\n"
                         "end\n");
  EXPECT_EQ(Out, "warning: array 'dead' is declared but never referenced "
                 "[unused-array]\n");
}

TEST(CommLint, UnusedArrayNegative) {
  EXPECT_EQ(lint("program p\n"
                 "param n = 8\n"
                 "real a(n,n) distribute (block,block)\n"
                 "begin\n"
                 "do i = 1, n\n"
                 "  do j = 1, n\n"
                 "    a(i,j) = 1\n"
                 "  end do\n"
                 "end do\n"
                 "end\n"),
            "");
}

TEST(CommLint, NoCommBenefitWarns) {
  // One shift, nothing to eliminate or combine: the global strategy matches
  // plain vectorization. Exercised through the driver, which supplies the
  // baseline plan.
  CompileOptions Opts;
  Opts.Audit = false;
  Opts.Lint = true;
  CompileResult R = compileSource("program p\n"
                                  "param n = 8\n"
                                  "real a(n,n) distribute (block,block)\n"
                                  "real b(n,n) distribute (block,block)\n"
                                  "begin\n"
                                  "do i = 2, n\n"
                                  "  do j = 1, n\n"
                                  "    a(i,j) = b(i-1,j)\n"
                                  "  end do\n"
                                  "end do\n"
                                  "end\n",
                                  Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_EQ(R.Diagnostics,
            "warning: global placement found no improvement over message "
            "vectorization in 'p' (1 messages either way); consider "
            "restructuring its loops [no-comm-benefit]\n");
}

TEST(CommLint, NoCommBenefitNegative) {
  // The second read of the same section is eliminated by the global
  // algorithm, so it clearly beats the baseline.
  CompileOptions Opts;
  Opts.Audit = false;
  Opts.Lint = true;
  CompileResult R = compileSource("program p\n"
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
                                  "do i = 2, n\n"
                                  "  do j = 1, n\n"
                                  "    c(i,j) = b(i-1,j)\n"
                                  "  end do\n"
                                  "end do\n"
                                  "end\n",
                                  Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_EQ(R.Diagnostics, "");
}

TEST(CommLint, DeadCommWarns) {
  // The use is guarded by an IF inside the loop, but the communication
  // vectorizes out to the loop preheader: every iteration that takes the
  // else path paid for a message nobody reads.
  std::string Out = lint("program p\n"
                         "param n = 8\n"
                         "real a(n,n) distribute (block,block)\n"
                         "real b(n,n) distribute (block,block)\n"
                         "begin\n"
                         "do i = 2, n\n"
                         "  if (c) then\n"
                         "    do j = 1, n\n"
                         "      a(i,j) = b(i-1,j)\n"
                         "    end do\n"
                         "  end if\n"
                         "end do\n"
                         "end\n");
  EXPECT_EQ(Out, "warning: 9:16: communication for 'b' (group 0, NNC[-1,0] "
                 "at (B1,0)) is partially dead: some path from its placement "
                 "reaches the routine exit without reading the data; "
                 "consider sinking it into the branch that uses it "
                 "[dead-comm]\n");
}

TEST(CommLint, DeadCommNamesEachGroup) {
  // A diagonal reference decomposes into two axis phases: two groups of one
  // array at one use. Each warning names its own group and direction, so
  // the two lines differ.
  std::string Out = lint("program p\n"
                         "param n = 8\n"
                         "real a(n,n) distribute (block,block)\n"
                         "real b(n,n) distribute (block,block)\n"
                         "begin\n"
                         "do i = 2, n\n"
                         "  if (c) then\n"
                         "    do j = 2, n\n"
                         "      a(i,j) = b(i-1,j-1)\n"
                         "    end do\n"
                         "  end if\n"
                         "end do\n"
                         "end\n");
  const std::string Tail =
      " is partially dead: some path from its placement reaches the routine "
      "exit without reading the data; consider sinking it into the branch "
      "that uses it [dead-comm]\n";
  EXPECT_EQ(Out, "warning: 9:16: communication for 'b' (group 0, NNC[-1,0] "
                 "at (B1,0))" +
                     Tail +
                     "warning: 9:16: communication for 'b' (group 1, "
                     "NNC[0,-1] at (B1,0))" +
                     Tail);
}

TEST(CommLint, DeadCommNegative) {
  // Same nest without the branch: every path from the placement passes the
  // use, so the rule stays quiet. (The preheader->postexit zero-trip edge
  // must not count as a dead path — the loop provably runs here, and even
  // when it could not, a zero-trip bypass is not worth warning about.)
  EXPECT_EQ(lint("program p\n"
                 "param n = 8\n"
                 "real a(n,n) distribute (block,block)\n"
                 "real b(n,n) distribute (block,block)\n"
                 "begin\n"
                 "do i = 2, n\n"
                 "  do j = 1, n\n"
                 "    a(i,j) = b(i-1,j)\n"
                 "  end do\n"
                 "end do\n"
                 "end\n"),
            "");
}

//===----------------------------------------------------------------------===//
// Auditor: clean plans pass
//===----------------------------------------------------------------------===//

TEST(PlanAudit, AllWorkloadsAllStrategiesPass) {
  for (const Workload *W : allWorkloads()) {
    for (Strategy S : {Strategy::Orig, Strategy::Earliest, Strategy::Global,
                       Strategy::EarliestCombine, Strategy::Optimal}) {
      CompileOptions Opts;
      Opts.Placement.Strat = S;
      Opts.Audit = false;
      CompileResult R = compileSource(W->Source, Opts);
      ASSERT_TRUE(R.Ok) << W->Name << ": " << R.Errors;
      for (const RoutineResult &RR : R.Routines) {
        AuditReport A = auditPlan(*RR.Ctx, RR.Plan, Opts.Placement);
        EXPECT_TRUE(A.ok()) << W->Name << " [" << strategyName(S) << "]\n"
                            << A.str();
        EXPECT_EQ(A.EntriesChecked,
                  static_cast<int>(RR.Plan.Entries.size()));
      }
    }
  }
}

TEST(PlanAudit, CleanReportRendersOkJson) {
  CompileResult R = compile(shallowWorkload().Source);
  AuditReport A =
      auditPlan(*R.Routines[0].Ctx, R.Routines[0].Plan, PlacementOptions());
  EXPECT_TRUE(A.ok());
  EXPECT_NE(A.json().find("\"ok\":true"), std::string::npos);
  EXPECT_NE(A.json().find("\"violations\":[]"), std::string::npos);
  EXPECT_NE(A.str().find("PASS"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Auditor: corrupted plans are rejected with located diagnostics
//===----------------------------------------------------------------------===//

namespace {

/// A two-statement stencil program whose global plan has one shift group; a
/// def of the communicated array separates two reads.
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

bool hasRule(const AuditReport &A, AuditRule Rule) {
  for (const AuditViolation &V : A.Violations)
    if (V.Rule == Rule)
      return true;
  return false;
}

/// The dataflow verifier's verdict on the same plan: the verifier column of
/// the catch matrix in DESIGN.md ("Translation validation").
bool verifyOk(const RoutineResult &RR,
              const PlacementOptions &Opts = PlacementOptions()) {
  return verifyPlan(*RR.Ctx, RR.Plan, Opts).ok();
}

} // namespace

TEST(PlanAudit, PlacementPastUseRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_GE(RR.Plan.Groups.size(), 2u);
  // Move the first communication to just after its use: it no longer
  // dominates the use and falls outside [Earliest, Latest].
  const CommEntry &E = RR.Plan.Entries[RR.Plan.Groups[0].Members[0]];
  RR.Plan.Groups[0].Placement = RR.Ctx->G.slotAfter(E.UseStmt);

  DiagEngine Diags;
  AuditReport A = auditPlan(*RR.Ctx, RR.Plan, PlacementOptions(), &Diags);
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(hasRule(A, AuditRule::PlacementRange)) << A.str();
  // The diagnostic is located at the use's source position.
  ASSERT_TRUE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diags()[0].Loc.isValid()) << Diags.str();
  EXPECT_NE(Diags.str().find("plan audit [placement-range]"),
            std::string::npos)
      << Diags.str();
  EXPECT_FALSE(verifyOk(RR));
}

TEST(PlanAudit, PlacementBeforeInterveningDefRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Groups.size(), 2u);
  // Hoist the second read's communication to the first one's placement,
  // which sits before the intervening redefinition of b.
  RR.Plan.Groups[1].Placement = RR.Plan.Groups[0].Placement;

  AuditReport A = auditPlan(*RR.Ctx, RR.Plan, PlacementOptions());
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(hasRule(A, AuditRule::InterveningDef)) << A.str();
  EXPECT_FALSE(verifyOk(RR));
}

TEST(PlanAudit, BrokenSubsumptionChainRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  // Fake an elimination with no surviving subsumer.
  CommEntry &E = RR.Plan.Entries[RR.Plan.Groups[0].Members[0]];
  RR.Plan.Groups[0].Members.clear();
  E.Eliminated = true;
  E.SubsumedBy = -1;
  E.GroupId = -1;

  AuditReport A = auditPlan(*RR.Ctx, RR.Plan, PlacementOptions());
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(hasRule(A, AuditRule::RedundancyAvail)) << A.str();
  EXPECT_TRUE(hasRule(A, AuditRule::Structure)) << A.str(); // Empty group.
  EXPECT_FALSE(verifyOk(RR));
}

TEST(PlanAudit, DataNotCoveringEntryRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  // Shrink the first group's communicated section to a single element.
  ASSERT_FALSE(RR.Plan.Groups[0].Data.empty());
  RegSection One(std::vector<SecDim>{SecDim::single(AffineExpr::constant(1)),
                                     SecDim::single(AffineExpr::constant(1))});
  RR.Plan.Groups[0].Data[0].D = One;

  AuditReport A = auditPlan(*RR.Ctx, RR.Plan, PlacementOptions());
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(hasRule(A, AuditRule::SubsetCoverage)) << A.str();
  EXPECT_FALSE(verifyOk(RR));
}

TEST(PlanAudit, InconsistentGroupLinksRejected) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  // A member whose back-pointer names another group.
  RR.Plan.Entries[RR.Plan.Groups[0].Members[0]].GroupId = 1;

  AuditReport A = auditPlan(*RR.Ctx, RR.Plan, PlacementOptions());
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(hasRule(A, AuditRule::Structure)) << A.str();
  EXPECT_FALSE(verifyOk(RR));
}

TEST(PlanAudit, CombiningOverThresholdRejected) {
  // Two same-shift reads of different arrays combine into one group under
  // the global strategy; auditing under a 1-byte threshold must reject it.
  CompileResult R = compile("program p\n"
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
                            "end\n");
  RoutineResult &RR = R.Routines[0];
  bool HasCombined = false;
  for (const CommGroup &G : RR.Plan.Groups)
    HasCombined = HasCombined || G.Members.size() >= 2;
  ASSERT_TRUE(HasCombined);

  PlacementOptions Tiny;
  Tiny.CombineThresholdBytes = 1;
  AuditReport A = auditPlan(*RR.Ctx, RR.Plan, Tiny);
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(hasRule(A, AuditRule::CombineLegality)) << A.str();
  // The verifier checks no size threshold.
  EXPECT_TRUE(verifyOk(RR, Tiny));

  // And under the real threshold the same plan is legal.
  EXPECT_TRUE(auditPlan(*RR.Ctx, RR.Plan, PlacementOptions()).ok());
}

TEST(PlanAudit, ViolationJsonIsMachineReadable) {
  CompileResult R = compile(kStencil);
  RoutineResult &RR = R.Routines[0];
  const CommEntry &E = RR.Plan.Entries[RR.Plan.Groups[0].Members[0]];
  RR.Plan.Groups[0].Placement = RR.Ctx->G.slotAfter(E.UseStmt);
  AuditReport A = auditPlan(*RR.Ctx, RR.Plan, PlacementOptions());
  ASSERT_FALSE(A.ok());
  std::string Json = A.json();
  EXPECT_NE(Json.find("\"ok\":false"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"rule\":\"placement-range\""), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"line\":"), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Driver integration
//===----------------------------------------------------------------------===//

TEST(Driver, AuditFlagPopulatesReports) {
  CompileOptions Opts;
  Opts.Audit = true;
  CompileResult R = compileSource(shallowWorkload().Source, Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_TRUE(R.AuditOk);
  EXPECT_EQ(R.Diagnostics, "");
  for (const RoutineResult &RR : R.Routines)
    EXPECT_EQ(RR.Audit.EntriesChecked,
              static_cast<int>(RR.Plan.Entries.size()));
}
