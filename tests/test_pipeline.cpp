//===- tests/test_pipeline.cpp - Pass pipeline and session tests ----------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// The instrumented pass pipeline of driver/Pipeline.h: determinism of
// parallel batch compilation, the Scalarize x Fuse x Audit x Lint options
// matrix, preservation of frontend warnings, lint-baseline reuse, per-pass
// instrumentation, and dump-after hooks.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/CommLint.h"
#include "support/ThreadPool.h"
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
  Opts.Audit = true;
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
  for (const Workload *W : evaluationWorkloads())
    for (bool Scalarize : {false, true})
      for (bool Fuse : {false, true})
        for (bool Audit : {false, true})
          for (bool Lint : {false, true}) {
            CompileOptions Opts;
            Opts.Scalarize = Scalarize;
            Opts.FuseLoops = Fuse;
            Opts.Audit = Audit;
            Opts.Lint = Lint;
            CompileResult R = compileSource(W->Source, Opts);
            ASSERT_TRUE(R.Ok)
                << W->Name << " scalarize=" << Scalarize << " fuse=" << Fuse
                << " audit=" << Audit << " lint=" << Lint << "\n"
                << R.Errors;
            EXPECT_TRUE(R.AuditOk)
                << W->Name << " scalarize=" << Scalarize << " fuse=" << Fuse
                << "\n"
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
                                             "lower", "audit", "verify",
                                             "lint"}));
  // Counter increments are attributed to the pass that made them.
  for (const PassRecord &P : S.Passes) {
    if (P.Name == "placement")
      EXPECT_EQ(P.Counters.at("placement.entries-detected"), 20);
    else
      EXPECT_FALSE(P.Counters.count("placement.entries-detected")) << P.Name;
  }
  TimeRecord Total = S.Times.total();
  EXPECT_GT(Total.WallSec, 0.0);
  EXPECT_EQ(Total.Invocations, 9);
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
  EXPECT_EQ(S2.Dumps.size(), 9u);
  // After placement the dump carries the plan.
  EXPECT_NE(S2.Dumps[4].second.find("plan["), std::string::npos);
}

TEST(Pipeline, JsonTimeReportHasPassesAndCounters) {
  CompileOptions Opts;
  Opts.Audit = true;
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
  Opts.Audit = false;
  Opts.Lint = false;
  CompileResult R = compileSource(figure4Workload().Source, Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_NE(R.Diagnostics.find("parameter override 'typo=3' does not match"),
            std::string::npos)
      << R.Diagnostics;

  // The old driver cleared the engine before audit/lint, losing the
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
  Opts.Audit = false;
  CompileResult R = compileSource(figure4Workload().Source, Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  EXPECT_EQ(R.Diagnostics, "");
}

//===----------------------------------------------------------------------===//
// Lint baseline reuse
//===----------------------------------------------------------------------===//

TEST(Pipeline, BaselineReuseMatchesFreshBaseline) {
  for (const Workload *W : evaluationWorkloads()) {
    CompileOptions Opts;
    Opts.Audit = false;
    Opts.Lint = true;
    // Through the session: the Orig baseline is computed once per routine
    // and shared between lint and the stats registry.
    Session S(W->Source, Opts);
    ASSERT_TRUE(S.run());
    int64_t BaselineGroups = S.Stats.get("placement.baseline-groups");
    CompileResult R = S.take();

    // By hand: a fresh baseline per routine.
    CompileOptions Plain;
    Plain.Audit = false;
    CompileResult Fresh = compileSource(W->Source, Plain);
    DiagEngine Diags;
    int64_t FreshGroups = 0;
    for (const RoutineResult &RR : Fresh.Routines) {
      PlacementOptions BaseOpts = Plain.Placement;
      BaseOpts.Strat = Strategy::Orig;
      CommPlan Baseline = planCommunication(*RR.Ctx, BaseOpts);
      FreshGroups += Baseline.Stats.totalGroups();
      lintRoutine(*RR.Ctx, RR.Plan, &Baseline, Diags);
    }
    EXPECT_EQ(R.Diagnostics, Diags.str()) << W->Name;
    EXPECT_EQ(BaselineGroups, FreshGroups) << W->Name;
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
