//===- tests/test_analysis.cpp - communication lint tests -----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the communication lint rules: one golden-output positive test
/// and one negative test per rule (exact DiagEngine::str() text). The plan
/// verifier's own tests live in tests/test_verify.cpp.
///
//===----------------------------------------------------------------------===//

#include "analysis/CommLint.h"
#include "driver/Compile.h"

#include <gtest/gtest.h>

using namespace gca;

namespace {

/// Compiles \p Source (already element-wise; scalarization is a no-op) and
/// returns the result, asserting success.
CompileResult compile(const std::string &Source,
                      Strategy Strat = Strategy::Global) {
  CompileOptions Opts;
  Opts.Placement.Strat = Strat;
  Opts.Lint = false;
  CompileResult R = compileSource(Source, Opts);
  EXPECT_TRUE(R.Ok) << R.Errors;
  return R;
}

/// Runs the lint rules over the first routine and returns the rendered
/// diagnostics (no Orig group count: the [no-comm-benefit] rule stays off).
std::string lint(const std::string &Source) {
  CompileResult R = compile(Source);
  DiagEngine Diags;
  lintRoutine(*R.Routines[0].Ctx, R.Routines[0].Plan, std::nullopt, Diags);
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
  // Orig group count.
  CompileOptions Opts;
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
