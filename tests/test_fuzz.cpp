//===- tests/test_fuzz.cpp - randomized end-to-end property tests ---------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic random-program generator drives the whole pipeline: it
/// builds data-parallel programs with random distributions, stencil offsets
/// (including diagonals), loop structures, branches, reductions, and
/// redundant re-reads, then asserts on every one of them that
///
///   (1) every strategy's schedule passes element-level provenance
///       verification (the safety property of Claims 4.1/4.7),
///   (2) the global algorithm never emits more call sites than the
///       baselines, and
///   (3) the placement-range invariants (Earliest dominates candidates
///       dominate Latest dominate the use) hold for every entry, and
///   (4) a warm result-cache replay of the compilation is bitwise-identical
///       to the cold run (the fuzzer doubles as a differential test of
///       driver/CachedPipeline.h), and
///   (5) the independent availability-dataflow verifier
///       (analysis/AvailDataflow.h) accepts every strategy's plan — the
///       translation-validation layer must never flag a plan the provenance
///       executor proves safe, and
///   (6) the indexed range analysis agrees with the reference one on every
///       entry (RangeOracle.h), with default options, without
///       scalarization and with loop fusion.
///
/// Seeds are fixed, so failures reproduce exactly. The seed range is split
/// into labeled shards (Shard0..Shard3 instantiations; ctest labels
/// fuzz-shard0..3) so CI can fan the fuzz tier out across jobs; `ctest -L
/// fuzz` still runs every shard.
///
//===----------------------------------------------------------------------===//

#include "FuzzGen.h"
#include "RangeOracle.h"
#include "analysis/AvailDataflow.h"
#include "driver/CachedPipeline.h"
#include "driver/Compile.h"
#include "lower/Schedule.h"
#include "runtime/Verify.h"
#include "support/ResultCache.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

using namespace gca;
using fuzzgen::generateProgram;

class Fuzz : public ::testing::TestWithParam<int> {};

TEST_P(Fuzz, PipelineSafeAndMonotone) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  std::string Src = generateProgram(Seed);
  SCOPED_TRACE(Src);

  int Sites[3] = {0, 0, 0};
  Strategy Strats[3] = {Strategy::Orig, Strategy::Earliest, Strategy::Global};
  for (int SI = 0; SI != 3; ++SI) {
    CompileOptions Opts;
    Opts.Placement.Strat = Strats[SI];
    // Exercise the extension flags on a rotating subset of seeds; they must
    // never compromise safety.
    Opts.Placement.DeferReductions = Seed % 3 == 0;
    Opts.Placement.PartialRedundancy = Seed % 4 == 0;
    Opts.FuseLoops = Seed % 5 == 0;
    CompileResult R = compileSource(Src, Opts);
    ASSERT_TRUE(R.Ok) << R.Errors;
    for (const RoutineResult &RR : R.Routines) {
      Sites[SI] += RR.Plan.Stats.totalGroups();

      // (3) Placement-range invariants (reductions fire right after their
      // statement instead of dominating it, Section 6.2).
      for (const CommEntry &E : RR.Plan.Entries) {
        EXPECT_TRUE(RR.Ctx->DT.slotDominates(E.EarliestSlot, E.LatestSlot));
        if (E.M.Kind == CommKind::Reduce)
          continue;
        for (const Slot &C : E.OriginalCandidates) {
          EXPECT_TRUE(RR.Ctx->DT.slotDominates(E.EarliestSlot, C));
          EXPECT_TRUE(RR.Ctx->slotDominatesUse(C, E.UseStmt));
        }
      }

      // (5) Translation validation: the independent availability-dataflow
      // verifier must also accept every plan (the fuzz oracle for
      // analysis/AvailDataflow.h).
      VerifyReport VR = verifyPlan(*RR.Ctx, RR.Plan, Opts.Placement);
      EXPECT_TRUE(VR.ok()) << "[" << strategyName(Strats[SI]) << "]\n"
                           << VR.str();

      // (1) Provenance safety on a 2x2 grid.
      ExecProgram Prog = ExecProgram::build(*RR.Ctx, RR.Plan);
      VerifyResult V = verifySchedule(*RR.Ctx, RR.Plan, Prog, 4);
      EXPECT_TRUE(V.Ok) << "[" << strategyName(Strats[SI]) << "]\n"
                        << V.str();
    }
  }
  // (2) Strategy monotonicity on call sites.
  EXPECT_LE(Sites[1], Sites[0]);
  EXPECT_LE(Sites[2], Sites[1]);

  // The strawman and exhaustive strategies must also be safe, and the
  // optimum can never use more call sites than the greedy.
  for (Strategy S : {Strategy::EarliestCombine, Strategy::Optimal}) {
    CompileOptions Opts;
    Opts.Placement.Strat = S;
    CompileResult R = compileSource(Src, Opts);
    ASSERT_TRUE(R.Ok) << R.Errors;
    int Total = 0;
    for (const RoutineResult &RR : R.Routines) {
      Total += RR.Plan.Stats.totalGroups();
      VerifyReport VR = verifyPlan(*RR.Ctx, RR.Plan, Opts.Placement);
      EXPECT_TRUE(VR.ok()) << "[" << strategyName(S) << "]\n" << VR.str();
      ExecProgram Prog = ExecProgram::build(*RR.Ctx, RR.Plan);
      VerifyResult V = verifySchedule(*RR.Ctx, RR.Plan, Prog, 4);
      EXPECT_TRUE(V.Ok) << "[" << strategyName(S) << "]\n" << V.str();
    }
    if (S == Strategy::Optimal) {
      EXPECT_LE(Total, Sites[2]);
    }
  }

  // (4) Result-cache differential: a warm replay of this seed's program
  // must be bitwise-identical to the cold compilation — same diagnostics,
  // plan text, verify verdict, and counters. The option rotation above keeps
  // the key-normalization path under fuzz too.
  {
    CompileOptions Opts;
    Opts.Placement.Strat = Strategy::Global;
    Opts.Placement.DeferReductions = Seed % 3 == 0;
    Opts.Placement.PartialRedundancy = Seed % 4 == 0;
    Opts.FuseLoops = Seed % 5 == 0;
    Opts.Verify = Seed % 2 ? VerifyMode::Final : VerifyMode::Each;
    Opts.Lint = Seed % 2 == 0;

    ResultCache Cache;
    CachedPipeline CP(Cache);
    Session Cold(Src, Opts);
    EXPECT_FALSE(CP.run(Cold));
    Session Warm(Src, Opts);
    EXPECT_TRUE(CP.run(Warm));

    StatsRegistry::Snapshot ColdStats = Cold.Stats.snapshot();
    StatsRegistry::Snapshot WarmStats = Warm.Stats.snapshot();
    CompileResult CR = Cold.take();
    CompileResult WR = Warm.take();
    ASSERT_TRUE(CR.Ok) << CR.Errors;
    EXPECT_TRUE(WR.Ok);
    EXPECT_TRUE(WR.FromCache);
    EXPECT_TRUE(CR.VerifyOk);
    EXPECT_EQ(CR.VerifyOk, WR.VerifyOk);
    EXPECT_EQ(CR.Diagnostics, WR.Diagnostics);
    EXPECT_EQ(CR.planText(), WR.planText());
    EXPECT_EQ(ColdStats, WarmStats);
  }
}

TEST_P(Fuzz, RangeAnalysisMatchesReference) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  std::string Src = generateProgram(Seed);
  for (const auto &[Name, Opts] : rangeOracleOptionSets())
    expectRangeMatchesReference(Src, Opts, Name + "\n" + Src);
}

// The 120 seeds are split into four labeled shards so the fuzz tier can fan
// out across CI jobs (tests/CMakeLists.txt maps each instantiation to a
// fuzz-shardN ctest label; -L fuzz matches all of them).
INSTANTIATE_TEST_SUITE_P(Shard0, Fuzz, ::testing::Range(1, 31));
INSTANTIATE_TEST_SUITE_P(Shard1, Fuzz, ::testing::Range(31, 61));
INSTANTIATE_TEST_SUITE_P(Shard2, Fuzz, ::testing::Range(61, 91));
INSTANTIATE_TEST_SUITE_P(Shard3, Fuzz, ::testing::Range(91, 121));

//===----------------------------------------------------------------------===//
// Protocol fuzz: random byte mutations of valid frames against a live
// in-process compile server (driver/Serve.h). The oracle: the daemon never
// crashes, every response it does send parses as JSON, and after each
// mutation campaign a valid request on a fresh connection is still served
// with bitwise-correct output. Lives in its own instantiation ("Proto") so
// tests/CMakeLists.txt can label it fuzz-proto alongside the pipeline
// shards.
//===----------------------------------------------------------------------===//

#include "ServeTestUtil.h"
#include "support/Io.h"
#include "workloads/Synth.h"

class ProtoFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProtoFuzz, MutatedFramesNeverKillTheDaemon) {
  using namespace gca::servetest;
  fuzzgen::Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 17);

  SynthSpec Spec;
  Spec.Nests = 4 + GetParam() % 5;
  Spec.Seed = static_cast<uint64_t>(GetParam()) + 1;
  CompileRequest Valid;
  Valid.Id = 1;
  Valid.Name = "proto-" + std::to_string(GetParam());
  Valid.Source = synthSource(Spec);
  const std::string Expected = runCompileRequest(Valid, nullptr).Output;
  const std::string ValidFrame = encodeFrame(buildCompileRequestJson(Valid));

  ServerConfig Config;
  Config.MaxFramePayload = 256 << 10;
  TestServer TS{Config};

  for (int Round = 0; Round < 120; ++Round) {
    // Mutate: byte flips, truncation, duplication, or random prefix junk.
    std::string Mutant = ValidFrame;
    int Flips = R.range(0, 12);
    for (int F = 0; F < Flips; ++F)
      Mutant[static_cast<size_t>(
          R.range(0, static_cast<int>(Mutant.size()) - 1))] =
          static_cast<char>(R.range(0, 255));
    if (R.chance(20))
      Mutant.resize(static_cast<size_t>(
          R.range(0, static_cast<int>(Mutant.size()))));
    if (R.chance(10))
      Mutant = std::string(static_cast<size_t>(R.range(1, 16)),
                           static_cast<char>(R.range(0, 255))) +
               Mutant;
    if (R.chance(10))
      Mutant += Mutant;

    int Fd = TS.connect();
    ASSERT_GE(Fd, 0);
    (void)ioWriteFull(Fd, Mutant.data(), Mutant.size());
    // Drain whatever the server answers (possibly nothing); every frame
    // that does come back must parse.
    while (readableWithin(Fd, 25)) {
      std::string Wire;
      if (readFrame(Fd, Wire) != FrameStatus::Ok)
        break;
      JsonValue Doc;
      std::string Err;
      EXPECT_TRUE(JsonValue::parse(Wire, Doc, Err))
          << "round " << Round << ": " << Err;
    }
    ::close(Fd);

    if (Round % 15 == 14) {
      // The daemon is still fully functional: a valid request is served
      // and its output is bitwise-identical to the one-shot pipeline.
      int Probe = TS.connect();
      ASSERT_GE(Probe, 0);
      gca::JsonValue Resp =
          sendRecv(Probe, buildCompileRequestJson(Valid));
      ASSERT_EQ(status(Resp), "ok") << "round " << Round;
      EXPECT_EQ(output(Resp), Expected) << "round " << Round;
      ::close(Probe);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Proto, ProtoFuzz, ::testing::Range(0, 8));
