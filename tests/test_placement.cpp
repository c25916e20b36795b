//===- tests/test_placement.cpp - placement algorithm tests ---------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "core/EarliestLatest.h"
#include "driver/Compile.h"
#include "driver/Pipeline.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gca;

namespace {

CompileResult compile(const std::string &Src, Strategy S,
                      int64_t N = 12) {
  CompileOptions Opts;
  Opts.Placement.Strat = S;
  Opts.Params["n"] = N;
  Opts.Params["nsteps"] = 2;
  CompileResult R = compileSource(Src, Opts);
  EXPECT_TRUE(R.Ok) << R.Errors;
  return R;
}

/// Finds the entry whose use statement assigns to \p LhsName and whose data
/// array is \p ArrayName.
const CommEntry *findEntry(const RoutineResult &RR,
                           const std::string &ArrayName,
                           const std::string &LhsName) {
  const Routine &R = *RR.R;
  for (const CommEntry &E : RR.Plan.Entries) {
    if (R.array(E.ArrayId).Name != ArrayName)
      continue;
    if (!E.UseStmt->lhsIsScalar() &&
        R.array(E.UseStmt->lhs().ArrayId).Name == LhsName)
      return &E;
  }
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Structural invariants on every workload and strategy.
//===----------------------------------------------------------------------===//

class PlacementInvariants
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlacementInvariants, EveryEntryWellFormed) {
  auto [WIdx, SIdx] = GetParam();
  const Workload *W = allWorkloads()[WIdx];
  Strategy S = static_cast<Strategy>(SIdx);
  CompileResult R = compile(W->Source, S);
  for (const RoutineResult &RR : R.Routines) {
    const AnalysisContext &Ctx = *RR.Ctx;
    for (const CommEntry &E : RR.Plan.Entries) {
      // Claim 4.1/4.5: Earliest dominates Latest dominates the use.
      // (Reductions are inverted: they fire right after their statement.)
      EXPECT_TRUE(Ctx.DT.slotDominates(E.EarliestSlot, E.LatestSlot));
      if (E.M.Kind == CommKind::Reduce) {
        EXPECT_EQ(E.LatestSlot, Ctx.G.slotAfter(E.UseStmt));
        continue;
      }
      EXPECT_TRUE(Ctx.slotDominatesUse(E.LatestSlot, E.UseStmt));
      // Claim 4.6: every candidate is a single dominating position between
      // the two.
      for (const Slot &C : E.OriginalCandidates) {
        EXPECT_TRUE(Ctx.DT.slotDominates(E.EarliestSlot, C));
        EXPECT_TRUE(Ctx.DT.slotDominates(C, E.LatestSlot));
        EXPECT_TRUE(Ctx.slotDominatesUse(C, E.UseStmt));
      }
      if (!E.Eliminated) {
        EXPECT_TRUE(E.Chosen.isValid());
        EXPECT_GE(E.GroupId, 0);
      } else {
        EXPECT_GE(E.SubsumedBy, 0);
      }
    }
    // Every non-reduction group placement dominates its members' uses.
    for (const CommGroup &G : RR.Plan.Groups) {
      EXPECT_FALSE(G.Members.empty());
      if (G.Kind != CommKind::Reduce) {
        for (int Id : G.Members)
          EXPECT_TRUE(
              Ctx.slotDominatesUse(G.Placement,
                                   RR.Plan.Entries[Id].UseStmt));
        for (int Id : G.Attached)
          EXPECT_TRUE(
              Ctx.slotDominatesUse(G.Placement,
                                   RR.Plan.Entries[Id].UseStmt));
      }
      EXPECT_EQ(G.Data.size(), G.DataAug.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PlacementInvariants,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 3)));

//===----------------------------------------------------------------------===//
// The paper's running example (Figure 4).
//===----------------------------------------------------------------------===//

TEST(Figure4, EarliestPoints) {
  CompileResult R = compile(figure4Workload().Source, Strategy::Global, 16);
  const RoutineResult &RR = R.Routines[0];
  const AnalysisContext &Ctx = *RR.Ctx;

  // Earliest(a) for both uses is the phi-merge after the IF (node where the
  // two branch definitions converge) — the paper's "Earliest(a1) =
  // Earliest(a2) = 7".
  const CommEntry *A1 = nullptr, *A2 = nullptr, *B1 = nullptr, *B2 = nullptr;
  for (const CommEntry &E : RR.Plan.Entries) {
    const std::string &Name = RR.R->array(E.ArrayId).Name;
    // Statement order identifies the first (strided j) and second loop uses.
    if (Name == "a")
      (A1 ? A2 : A1) = &E;
    if (Name == "b")
      (B1 ? B2 : B1) = &E;
  }
  ASSERT_TRUE(A1 && A2 && B1 && B2);
  EXPECT_EQ(A1->EarliestSlot, A2->EarliestSlot);
  // b1 (odd columns) can move up right after statement 1's nest; b2 (all
  // columns) only after statement 2's: different earliest points, exactly
  // the paper's syntax-sensitivity observation.
  EXPECT_NE(B1->EarliestSlot, B2->EarliestSlot);
  EXPECT_TRUE(Ctx.DT.slotDominates(B1->EarliestSlot, B2->EarliestSlot));
}

TEST(Figure4, StrategiesMatchPaper) {
  // orig: one vectorized site per array (2). nored: earliest placement
  // catches a1 but not b1 (3). comb: everything combines into one exchange
  // with a1 and b1 eliminated (1).
  int Expect[3] = {2, 3, 1};
  Strategy Strats[3] = {Strategy::Orig, Strategy::Earliest, Strategy::Global};
  for (int I = 0; I != 3; ++I) {
    CompileResult R = compile(figure4Workload().Source, Strats[I], 16);
    EXPECT_EQ(R.Routines[0].Plan.Stats.groups(CommKind::Shift), Expect[I])
        << strategyName(Strats[I]);
  }
  CompileResult R = compile(figure4Workload().Source, Strategy::Global, 16);
  EXPECT_EQ(R.Routines[0].Plan.Stats.NumEliminated, 2);
}

TEST(Figure4, GlobalPlacementIsLaterThanEarliest) {
  CompileResult R = compile(figure4Workload().Source, Strategy::Global, 16);
  const RoutineResult &RR = R.Routines[0];
  // The combined group sits at the loop preheader — strictly later than the
  // earliest points ("placement of communication is not at the earliest
  // point detected by dataflow analysis").
  ASSERT_EQ(RR.Plan.Groups.size(), 1u);
  const CommGroup &G = RR.Plan.Groups[0];
  for (const CommEntry &E : RR.Plan.Entries)
    EXPECT_TRUE(RR.Ctx->DT.slotDominates(E.EarliestSlot, G.Placement));
  for (const CommEntry &E : RR.Plan.Entries) {
    if (!E.Eliminated) {
      EXPECT_NE(G.Placement, E.EarliestSlot);
    }
  }
}

//===----------------------------------------------------------------------===//
// Figure 3: syntax sensitivity.
//===----------------------------------------------------------------------===//

TEST(Figure3, EarliestCombiningIsSyntaxSensitive) {
  // Under earliest placement + same-point combining, the hand-fused form
  // combines a and b into one message while the scalarized form cannot.
  CompileResult Scal = compile(figure3ScalarizedWorkload().Source,
                               Strategy::EarliestCombine, 16);
  CompileResult Fused = compile(figure3HandCodedWorkload().Source,
                                Strategy::EarliestCombine, 16);
  EXPECT_EQ(Scal.Routines[0].Plan.Stats.groups(CommKind::Shift), 2);
  EXPECT_EQ(Fused.Routines[0].Plan.Stats.groups(CommKind::Shift), 1);
}

TEST(Figure3, GlobalPlacementIsRobust) {
  // The paper's algorithm reaches one combined message for every
  // semantically equivalent form.
  for (const Workload *W :
       {&figure3FusedWorkload(), &figure3ScalarizedWorkload(),
        &figure3HandCodedWorkload()}) {
    CompileResult R = compile(W->Source, Strategy::Global, 16);
    EXPECT_EQ(R.Routines[0].Plan.Stats.groups(CommKind::Shift), 1)
        << W->Name;
  }
}

//===----------------------------------------------------------------------===//
// Earliest computation specifics.
//===----------------------------------------------------------------------===//

TEST(Earliest, StopsAtLastInterferingDef) {
  CompileResult R = compile(R"(
program e
param n = 8
real a(n) distribute (block)
real b(n) distribute (block)
begin
  a(1:n) = 1
  a(1:n) = 2
  b(2:n) = a(1:n-1)
end
)",
                            Strategy::Global, 8);
  const RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Entries.size(), 1u);
  const CommEntry &E = RR.Plan.Entries[0];
  // Earliest must be after the *second* definition nest of a.
  const AnalysisContext &Ctx = *RR.Ctx;
  const auto *SecondNest = cast<LoopStmt>(RR.R->body()[1]);
  int Post = Ctx.G.loop(Ctx.G.loopIdOf(SecondNest)).Postexit;
  EXPECT_EQ(E.EarliestSlot.Node, Post);
}

TEST(Earliest, EntryWhenNoDefsExist) {
  CompileResult R = compile(R"(
program e
param n = 8
real a(n) distribute (block)
real b(n) distribute (block)
begin
  b(2:n) = a(1:n-1)
end
)",
                            Strategy::Global, 8);
  const RoutineResult &RR = R.Routines[0];
  ASSERT_EQ(RR.Plan.Entries.size(), 1u);
  // Data comes from ENTRY only: communication may hoist to the entry node.
  EXPECT_EQ(RR.Plan.Entries[0].EarliestSlot.Node, RR.Ctx->G.entry());
}

TEST(Earliest, CarriedDepPinsToHeader) {
  CompileResult R = compile(R"(
program e
param n = 8
real a(n) distribute (block)
real b(n) distribute (block)
begin
  a = 0
  do t = 1, 4
    b(2:n) = a(1:n-1)
    a(1:n) = b(1:n)
  end do
end
)",
                            Strategy::Global, 8);
  const RoutineResult &RR = R.Routines[0];
  const CommEntry *Use = findEntry(RR, "a", "b");
  ASSERT_NE(Use, nullptr);
  // a is rewritten every iteration: communication must stay inside the
  // t-loop, at its header (top of each iteration). (The init statement's
  // scalarized nest occupies the first loop ids.)
  const auto *TLoop = cast<LoopStmt>(RR.R->body()[1]);
  const CfgLoop &T = RR.Ctx->G.loop(RR.Ctx->G.loopIdOf(TLoop));
  EXPECT_EQ(Use->EarliestSlot.Node, T.Header);
  EXPECT_EQ(Use->CommLevel, 1);
}

TEST(Latest, VectorizesToDependenceFreeLevel) {
  CompileResult R = compile(R"(
program e
param n = 8
real a(n,n) distribute (block,block)
real b(n,n) distribute (block,block)
begin
  a = 0
  do t = 1, 4
    do i = 2, n
      do j = 1, n
        b(i,j) = a(i-1,j)
      end do
    end do
    a(1:n,1:n) = b(1:n,1:n)
  end do
end
)",
                            Strategy::Global, 8);
  const RoutineResult &RR = R.Routines[0];
  const CommEntry *Use = findEntry(RR, "a", "b");
  ASSERT_NE(Use, nullptr);
  // Dependence carried at the t level: Latest is the preheader of the
  // level-2 loop (the i loop), i.e. communication vectorized over i and j.
  EXPECT_EQ(Use->CommLevel, 1);
  const Routine &Rt = *RR.R;
  const auto *TL = cast<LoopStmt>(Rt.body()[1]);
  const auto *IL = cast<LoopStmt>(TL->body()[0]);
  EXPECT_EQ(Use->LatestSlot.Node,
            RR.Ctx->G.loop(RR.Ctx->G.loopIdOf(IL)).Preheader);
}

TEST(Subsumption, RestrictsSubsumerIntoVictimRange) {
  CompileResult R = compile(figure4Workload().Source, Strategy::Global, 16);
  const RoutineResult &RR = R.Routines[0];
  // b1 was eliminated by b2; the surviving group must still be placed where
  // b1's data is fresh (dominated by b1's earliest).
  for (const CommEntry &E : RR.Plan.Entries) {
    if (!E.Eliminated)
      continue;
    const CommGroup &G = RR.Plan.Groups[RR.Plan.Entries[E.SubsumedBy]
                                            .GroupId >= 0
                                            ? RR.Plan.Entries[E.SubsumedBy]
                                                  .GroupId
                                            : E.GroupId];
    EXPECT_TRUE(RR.Ctx->DT.slotDominates(E.EarliestSlot, G.Placement));
    EXPECT_TRUE(RR.Ctx->slotDominatesUse(G.Placement, E.UseStmt));
  }
}

TEST(Subsumption, TwiceSubsumedEntryKeepsItsRange) {
  // In this 40-nest synthetic routine an entry C1 subsumes an entry V and is
  // then itself subsumed by C2. C2 stands in for V as well, so C2's group
  // must land inside V's range, not only inside C1's.
  SynthSpec Spec;
  Spec.Nests = 40;
  Spec.Seed = 255;
  CompileOptions Opts;
  Opts.Placement.Strat = Strategy::Global;
  Opts.Verify = VerifyMode::Final;
  CompileResult R = compileSource(synthSource(Spec), Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_TRUE(R.VerifyOk) << R.Diagnostics;
  int Chains = 0;
  for (const RoutineResult &RR : R.Routines) {
    for (const CommEntry &E : RR.Plan.Entries) {
      if (!E.Eliminated)
        continue;
      Chains += RR.Plan.Entries[E.SubsumedBy].Eliminated;
      ASSERT_GE(E.GroupId, 0);
      const Slot &P = RR.Plan.Groups[E.GroupId].Placement;
      EXPECT_NE(std::find(E.OriginalCandidates.begin(),
                          E.OriginalCandidates.end(), P),
                E.OriginalCandidates.end())
          << "entry " << E.Id << " rides a group at (B" << P.Node << ","
          << P.Index << "), outside its range";
    }
  }
  EXPECT_GT(Chains, 0) << "the input no longer has a twice-subsumed entry";
}

//===----------------------------------------------------------------------===//
// Optimal placer (Section 6.1 ablation).
//===----------------------------------------------------------------------===//

TEST(Optimal, NeverWorseThanGreedy) {
  for (const Workload *W : {&figure4Workload(), &figure3ScalarizedWorkload(),
                            &gravityWorkload()}) {
    CompileResult Greedy = compile(W->Source, Strategy::Global, 8);
    CompileResult Opt = compile(W->Source, Strategy::Optimal, 8);
    for (size_t I = 0; I != Greedy.Routines.size(); ++I)
      EXPECT_LE(Opt.Routines[I].Plan.Stats.totalGroups(),
                Greedy.Routines[I].Plan.Stats.totalGroups())
          << W->Name;
  }
}

//===----------------------------------------------------------------------===//
// Indexed placement sets: pattern-class bucketing must cut the pairwise
// comparison work, and the engine must surface its query counters.
//===----------------------------------------------------------------------===//

namespace {

/// Four shift nests reading \p SrcA and four reading \p SrcB, every nest
/// over its own disjoint index window so no section subsumes another (no
/// entry is eliminated and the pairwise scans see all survivors). All
/// shifts have the same sign, so with SrcA == SrcB every entry lands in
/// one (array, pattern-class) bucket; with two distinct arrays the bucket
/// splits in half and cross-array pairs are never compared.
std::string bucketWorkload(const std::string &SrcA, const std::string &SrcB) {
  std::string S = "program bucket\nparam n = 32\n";
  for (const char *A : {"x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4"})
    S += std::string("real ") + A + "(n) distribute (block)\n";
  S += "real " + SrcA + "(n) distribute (block)\n";
  if (SrcB != SrcA)
    S += "real " + SrcB + "(n) distribute (block)\n";
  S += "begin\n";
  const char *SinkA[] = {"x1", "x2", "x3", "x4"};
  const char *SinkB[] = {"y1", "y2", "y3", "y4"};
  for (int I = 0; I != 4; ++I)
    S += strFormat("  do i = %d, %d\n    %s(i) = %s(i-1)\n  end do\n",
                   2 + 3 * I, 4 + 3 * I, SinkA[I], SrcA.c_str());
  for (int I = 4; I != 8; ++I)
    S += strFormat("  do i = %d, %d\n    %s(i) = %s(i-1)\n  end do\n",
                   2 + 3 * I, 4 + 3 * I, SinkB[I - 4], SrcB.c_str());
  S += "end\n";
  return S;
}

int64_t pairComparesOf(const std::string &Src) {
  CompileOptions Opts;
  Opts.Placement.Strat = Strategy::Global;
  Session S(Src, Opts);
  EXPECT_TRUE(S.run()) << S.Result.Errors;
  EXPECT_GT(S.Stats.get("placement.slotset-merges"), 0);
  EXPECT_GT(S.Stats.get("dom.queries"), 0);
  return S.Stats.get("placement.pair-compares");
}

} // namespace

TEST(IndexedPlacement, BucketingCutsPairComparesOnTwoArrayWorkload) {
  // Same shape, same entry count (8 stencil entries with identical slot
  // ranges); the only difference is whether they all read one array or
  // split across two. The (array, pattern-class) buckets must prevent every
  // cross-array comparison, so the two-array run does strictly less work.
  int64_t OneArray = pairComparesOf(bucketWorkload("b", "b"));
  int64_t TwoArrays = pairComparesOf(bucketWorkload("b", "d"));
  EXPECT_GT(OneArray, 0);
  EXPECT_GT(TwoArrays, 0);
  EXPECT_LT(TwoArrays, OneArray);
}

TEST(IndexedPlacement, RangeWorkGrowsLinearlyWithTheRoutine) {
  // The range analysis' dependence solves and walk steps are exact counts,
  // so unlike a timing they can pin its scaling deterministically: doubling
  // the routine must not much more than double either (an O(uses x defs)
  // walk quadruples them).
  auto work = [](int Nests) {
    SynthSpec Spec;
    Spec.Nests = Nests;
    Spec.Seed = 1;
    CompileOptions Opts;
    Opts.Verify = VerifyMode::Off;
    Session S(synthSource(Spec), Opts);
    EXPECT_TRUE(S.run()) << S.Result.Errors;
    return std::make_pair(S.Stats.get("placement.range-solves"),
                          S.Stats.get("placement.range-steps"));
  };
  auto [Solves1, Steps1] = work(1000);
  auto [Solves2, Steps2] = work(2000);
  ASSERT_GT(Solves1, 0);
  ASSERT_GT(Steps1, 0);
  EXPECT_LE(static_cast<double>(Solves2) / static_cast<double>(Solves1), 2.5);
  EXPECT_LE(static_cast<double>(Steps2) / static_cast<double>(Steps1), 2.5);
}
