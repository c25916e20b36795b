//===- tests/test_pipeline.cpp - Pass pipeline and session tests ----------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// The instrumented pass pipeline of driver/Pipeline.h: determinism of
// parallel batch compilation, the Scalarize x Fuse x Lint options matrix
// under verification, preservation of frontend warnings, lint's Orig group
// count, per-pass instrumentation, and dump-after hooks.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/CommLint.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gca;

namespace {

/// The deterministic fingerprint of one compilation: plans, stats,
/// diagnostics, and counters (timings excluded).
std::string fingerprint(const std::string &Source,
                        const CompileOptions &Opts) {
  Session S(Source, Opts);
  S.run();
  CompileResult R = S.take();
  std::string Out = R.Errors + R.Diagnostics;
  for (const RoutineResult &RR : R.Routines) {
    Out += RR.Plan.str(*RR.R);
    Out += RR.Plan.decisionsStr(*RR.R);
    Out += RR.Plan.Stats.str();
  }
  Out += S.Stats.json();
  return Out;
}

TEST(Pipeline, DeterministicSeriallyAndParallel) {
  std::vector<const Workload *> Ws = allWorkloads();
  CompileOptions Opts;
  Opts.Lint = true;

  // Serial reference, computed twice: same source -> same fingerprint.
  std::vector<std::string> Ref;
  for (const Workload *W : Ws)
    Ref.push_back(fingerprint(W->Source, Opts));
  for (size_t I = 0; I != Ws.size(); ++I)
    EXPECT_EQ(Ref[I], fingerprint(Ws[I]->Source, Opts)) << Ws[I]->Name;

  // Eight-way parallel run over several copies of the suite: every result
  // must be bitwise identical to the serial reference.
  std::vector<std::string> Par(Ws.size() * 4);
  ThreadPool Pool(8);
  for (size_t I = 0; I != Par.size(); ++I)
    Pool.async([&, I] { Par[I] = fingerprint(Ws[I % Ws.size()]->Source, Opts); });
  Pool.wait();
  for (size_t I = 0; I != Par.size(); ++I)
    EXPECT_EQ(Ref[I % Ws.size()], Par[I]) << Ws[I % Ws.size()]->Name;
}

TEST(Pipeline, OptionsMatrixAllSucceed) {
  // Verify is set explicitly, so Release builds check every configuration
  // too.
  for (const Workload *W : evaluationWorkloads())
    for (bool Scalarize : {false, true})
      for (bool Fuse : {false, true})
        for (bool Lint : {false, true}) {
          CompileOptions Opts;
          Opts.Scalarize = Scalarize;
          Opts.FuseLoops = Fuse;
          Opts.Verify = VerifyMode::Final;
          Opts.Lint = Lint;
          CompileResult R = compileSource(W->Source, Opts);
          ASSERT_TRUE(R.Ok) << W->Name << " scalarize=" << Scalarize
                            << " fuse=" << Fuse << " lint=" << Lint << "\n"
                            << R.Errors;
          EXPECT_TRUE(R.VerifyOk) << W->Name << " scalarize=" << Scalarize
                                  << " fuse=" << Fuse << "\n"
                                  << R.Diagnostics;
        }
}

TEST(Pipeline, PassRecordsCoverStandardPipeline) {
  Session S(shallowWorkload().Source, CompileOptions());
  ASSERT_TRUE(S.run());
  std::vector<std::string> Names;
  for (const PassRecord &P : S.Passes)
    Names.push_back(P.Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"parse", "scalarize", "fuse",
                                             "build-context", "placement",
                                             "lower", "verify", "lint"}));
  // Counter increments are attributed to the pass that made them.
  for (const PassRecord &P : S.Passes) {
    if (P.Name == "placement")
      EXPECT_EQ(P.Counters.at("placement.entries-detected"), 20);
    else
      EXPECT_FALSE(P.Counters.count("placement.entries-detected")) << P.Name;
  }
  TimeRecord Total = S.Times.total();
  EXPECT_GT(Total.WallSec, 0.0);
  EXPECT_EQ(Total.Invocations, 8);
}

TEST(Pipeline, PooledCompileListsRoutineRegionsOnceInFileOrder) {
  // A file of eight routines compiled with a pool: each timed pass lists
  // its routine regions once each, in file order, whichever worker ran
  // them; the pass's CPU time covers its routines' CPU time, wherever it
  // was spent; and everything but the timings equals the serial compile.
  CompileOptions Opts;
  Opts.Verify = VerifyMode::Final;
  Opts.Lint = true;
  const std::string Source = synthRoutinesSource(8, 20, 3);
  ThreadPool Pool(4);
  Session Pooled(Source, Opts, &Pool);
  ASSERT_TRUE(Pooled.run());
  std::vector<std::string> FileOrder;
  for (int R = 0; R != 8; ++R)
    FileOrder.push_back("r" + std::to_string(R));
  for (const char *Pass :
       {"build-context", "placement", "lower", "verify", "lint"}) {
    SCOPED_TRACE(Pass);
    const TimeTrace::Node *P = Pooled.Times.root().child(Pass);
    ASSERT_NE(P, nullptr);
    std::vector<std::string> Regions;
    double RoutineCpu = 0;
    for (const auto &C : P->Children) {
      Regions.push_back(C->Name);
      EXPECT_EQ(C->Time.Invocations, 1) << C->Name;
      RoutineCpu += C->Time.CpuSec;
    }
    EXPECT_EQ(Regions, FileOrder);
    EXPECT_GE(P->Time.CpuSec + 1e-9, RoutineCpu);
  }

  Session Serial(Source, Opts);
  ASSERT_TRUE(Serial.run());
  auto PassCounters = [](const Session &S) {
    std::vector<std::pair<std::string, StatsRegistry::Snapshot>> Out;
    for (const PassRecord &P : S.Passes)
      Out.emplace_back(P.Name, P.Counters);
    return Out;
  };
  EXPECT_EQ(PassCounters(Pooled), PassCounters(Serial));
  EXPECT_EQ(Pooled.Stats.snapshot(), Serial.Stats.snapshot());
  CompileResult PooledRes = Pooled.take(), SerialRes = Serial.take();
  EXPECT_EQ(PooledRes.VerifyOk, SerialRes.VerifyOk);
  EXPECT_EQ(PooledRes.Diagnostics, SerialRes.Diagnostics);
  EXPECT_EQ(PooledRes.planText(), SerialRes.planText());
}

TEST(Pipeline, DumpAfterRecordsSnapshot) {
  CompileOptions Opts;
  Opts.DumpAfter = "scalarize";
  Session S(figure3FusedWorkload().Source, Opts);
  ASSERT_TRUE(S.run());
  ASSERT_EQ(S.Dumps.size(), 1u);
  EXPECT_EQ(S.Dumps[0].first, "scalarize");
  // The scalarized dump has loop nests but no plans yet.
  EXPECT_NE(S.Dumps[0].second.find("do "), std::string::npos);
  EXPECT_EQ(S.Dumps[0].second.find("plan["), std::string::npos);

  CompileOptions All;
  All.DumpAfter = "all";
  Session S2(figure3FusedWorkload().Source, All);
  ASSERT_TRUE(S2.run());
  EXPECT_EQ(S2.Dumps.size(), 8u);
  // After placement the dump carries the plan.
  EXPECT_NE(S2.Dumps[4].second.find("plan["), std::string::npos);
}

TEST(Pipeline, JsonTimeReportHasPassesAndCounters) {
  CompileOptions Opts;
  Session S(shallowWorkload().Source, Opts);
  ASSERT_TRUE(S.run());
  std::string Json = S.timeReportJson();
  for (const char *Key :
       {"\"name\":\"parse\"", "\"name\":\"placement\"", "\"wall_s\":",
        "\"counters\":", "placement.entries-detected", "\"regions\":",
        "\"name\":\"shallow\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key << "\n" << Json;
}

//===----------------------------------------------------------------------===//
// Regression: non-error frontend diagnostics reach CompileResult
//===----------------------------------------------------------------------===//

TEST(Pipeline, FrontendWarningsPreserved) {
  // An override that matches no param declaration draws a parser warning.
  CompileOptions Opts;
  Opts.Params["typo"] = 3;
  Opts.Lint = false;
  CompileResult R = compileSource(figure4Workload().Source, Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_NE(R.Diagnostics.find("parameter override 'typo=3' does not match"),
            std::string::npos)
      << R.Diagnostics;

  // The old driver cleared the engine before lint, losing the
  // warning; it must now survive alongside lint output.
  Opts.Lint = true;
  R = compileSource(figure4Workload().Source, Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_NE(R.Diagnostics.find("parameter override"), std::string::npos)
      << R.Diagnostics;
}

TEST(Pipeline, MatchedOverridesStayQuiet) {
  CompileOptions Opts;
  Opts.Params["n"] = 16;
  CompileResult R = compileSource(figure4Workload().Source, Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_EQ(R.Diagnostics, "");
}

//===----------------------------------------------------------------------===//
// Lint's Orig group count
//===----------------------------------------------------------------------===//

TEST(Pipeline, BaselineReuseMatchesFreshBaseline) {
  // Lint counts Orig's groups from the routine's own plan (origGroupCount)
  // instead of placing it again. The count must equal a real Orig
  // placement's, and lint must warn exactly as it does when handed that
  // placement's count, under every strategy that counts and under the
  // options that change detection, Latest or the routines themselves.
  std::vector<std::pair<std::string, std::string>> Inputs;
  for (const Workload *W : evaluationWorkloads())
    Inputs.emplace_back(W->Name, W->Source);
  Inputs.emplace_back("synth 8x150", synthRoutinesSource(8, 150, 1));
  for (Strategy Strat : {Strategy::Earliest, Strategy::Global,
                         Strategy::Optimal, Strategy::EarliestCombine}) {
    for (int Set = 0; Set != 4; ++Set) {
      CompileOptions Opts;
      Opts.Placement.Strat = Strat;
      Opts.Verify = VerifyMode::Off;
      Opts.Lint = true;
      Opts.Placement.DeferReductions = Opts.Placement.PartialRedundancy =
          Set == 1;
      Opts.FuseLoops = Set == 2;
      Opts.Scalarize = Set != 3;
      for (const auto &[Name, Source] : Inputs) {
        std::string Where =
            strFormat("%s, option set %d, %s", strategyName(Strat), Set,
                      Name.c_str());
        Session S(Source, Opts);
        ASSERT_TRUE(S.run()) << Where;
        int64_t Counted = S.Stats.get("placement.baseline-groups");
        CompileResult R = S.take();

        PlacementOptions OrigOpts = Opts.Placement;
        OrigOpts.Strat = Strategy::Orig;
        DiagEngine Diags;
        int64_t Placed = 0;
        for (const RoutineResult &RR : R.Routines) {
          int N = planCommunication(*RR.Ctx, OrigOpts).Stats.totalGroups();
          Placed += N;
          lintRoutine(*RR.Ctx, RR.Plan, N, Diags);
        }
        EXPECT_EQ(Counted, Placed) << Where;
        EXPECT_EQ(R.Diagnostics, Diags.str()) << Where;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Error paths through the wrapper stay intact
//===----------------------------------------------------------------------===//

TEST(Pipeline, ParseErrorsStillFail) {
  CompileResult R = compileSource("program p\nbogus tokens here\n",
                                  CompileOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Errors.find("error"), std::string::npos);
  EXPECT_TRUE(R.Routines.empty());
}

} // namespace
