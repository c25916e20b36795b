//===- tests/test_trace.cpp - tracing, metrics, JSON writer tests ---------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "driver/Compile.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

using namespace gca;

namespace {

/// A minimal structural JSON checker: enough to catch interleaving
/// corruption (unbalanced braces/brackets, quotes broken by a torn write)
/// without a full parser. The CI job additionally parses traces with
/// python3's json module.
bool structurallyValidJson(const std::string &S) {
  int Depth = 0;
  bool InString = false, Escape = false;
  for (char C : S) {
    if (InString) {
      if (Escape)
        Escape = false;
      else if (C == '\\')
        Escape = true;
      else if (C == '"')
        InString = false;
      else if (static_cast<unsigned char>(C) < 0x20)
        return false; // Raw control character inside a string.
      continue;
    }
    switch (C) {
    case '"':
      InString = true;
      break;
    case '{':
    case '[':
      ++Depth;
      break;
    case '}':
    case ']':
      if (--Depth < 0)
        return false;
      break;
    default:
      break;
    }
  }
  return Depth == 0 && !InString;
}

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Hay.find(Needle); P != std::string::npos;
       P = Hay.find(Needle, P + Needle.size()))
    ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(JsonWriter, EscapesHostileStrings) {
  JsonWriter W;
  W.beginObject();
  W.key("path\"with\\both").value("a\"b\\c\nd\te");
  W.endObject();
  EXPECT_EQ(W.str(),
            "{\"path\\\"with\\\\both\":\"a\\\"b\\\\c\\nd\\te\"}");
  EXPECT_TRUE(structurallyValidJson(W.str()));
}

TEST(JsonWriter, CommasAndNesting) {
  JsonWriter W;
  W.beginObject();
  W.key("a").value(1);
  W.key("b").beginArray().value("x").value(true).null().endArray();
  W.key("c").beginObject().key("d").value(2.5, 2).endObject();
  W.key("e").raw("[1,2]");
  W.endObject();
  EXPECT_EQ(W.str(),
            "{\"a\":1,\"b\":[\"x\",true,null],\"c\":{\"d\":2.50},"
            "\"e\":[1,2]}");
}

TEST(JsonWriter, NumericTypes) {
  JsonWriter W;
  W.beginArray();
  W.value(int64_t(-9000000000));
  W.value(uint64_t(18446744073709551615ull));
  W.value(false);
  W.endArray();
  EXPECT_EQ(W.str(), "[-9000000000,18446744073709551615,false]");
}

//===----------------------------------------------------------------------===//
// Histogram and MetricsSnapshot
//===----------------------------------------------------------------------===//

TEST(Histogram, SmallValuesAreExact) {
  Histogram H;
  for (int64_t V = 0; V < 32; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 32);
  EXPECT_EQ(H.min(), 0);
  EXPECT_EQ(H.max(), 31);
  EXPECT_EQ(H.quantile(0.5), 16); // First value with cumulative >= half.
  EXPECT_EQ(H.quantile(1.0), 31);
}

TEST(Histogram, QuantileErrorBounded) {
  Histogram H;
  for (int64_t V = 1; V <= 100000; ++V)
    H.record(V);
  // Log-bucketed: quantiles land within one sub-bucket (1/16) below the
  // true value, clamped to the observed range.
  for (double Q : {0.5, 0.95, 0.99}) {
    int64_t True = static_cast<int64_t>(Q * 100000);
    int64_t Got = H.quantile(Q);
    EXPECT_LE(Got, True);
    EXPECT_GE(Got, True - True / 8) << "q=" << Q;
  }
  EXPECT_EQ(H.quantile(1.0) <= 100000, true);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram A, B, Both;
  for (int64_t V = 0; V < 1000; V += 2) {
    A.record(V);
    Both.record(V);
  }
  for (int64_t V = 1; V < 1000; V += 2) {
    B.record(V);
    Both.record(V);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), Both.count());
  EXPECT_EQ(A.sum(), Both.sum());
  EXPECT_EQ(A.quantile(0.5), Both.quantile(0.5));
  EXPECT_EQ(A.str(), Both.str());
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram H;
  H.record(-5);
  EXPECT_EQ(H.count(), 1);
  EXPECT_EQ(H.min(), 0);
}

TEST(MetricsSnapshot, JsonAndPrometheus) {
  MetricsSnapshot S;
  S.Counters["cache.hits"] = 3;
  S.Counters["driver.inputs"] = 7;
  S.Gauges["server.queue-depth"] = 2;
  Histogram H;
  H.record(100);
  H.record(200);
  S.addHistogram("compile.wall_ns", H);

  std::string J = S.json();
  EXPECT_TRUE(structurallyValidJson(J));
  EXPECT_NE(J.find("\"cache.hits\":3"), std::string::npos);
  EXPECT_NE(J.find("\"gauges\":{\"server.queue-depth\":2}"),
            std::string::npos);
  EXPECT_NE(J.find("\"compile.wall_ns\""), std::string::npos);
  EXPECT_NE(J.find("\"count\":2"), std::string::npos);

  std::string P = S.prometheus();
  EXPECT_NE(P.find("# TYPE gca_cache_hits counter"), std::string::npos);
  EXPECT_NE(P.find("gca_cache_hits 3"), std::string::npos);
  EXPECT_NE(P.find("# TYPE gca_server_queue_depth gauge\n"
                   "gca_server_queue_depth 2\n"),
            std::string::npos);
  EXPECT_EQ(P.find("gca_server_queue_depth counter"), std::string::npos);
  EXPECT_NE(P.find("# TYPE gca_compile_wall_ns summary"), std::string::npos);
  EXPECT_NE(P.find("gca_compile_wall_ns{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(P.find("gca_compile_wall_ns_count 2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// TraceCollector
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledEmissionIsDropped) {
  TraceCollector &C = TraceCollector::instance();
  ASSERT_FALSE(C.enabled());
  C.beginSpan("x", "t");
  C.endSpan();
  C.instant("y", "t");
  C.counter("z", "t", 1);
  { TraceSpan S("w", "t"); }
  EXPECT_EQ(C.eventCount(), 0u);
}

TEST(Trace, DisabledFastPathIsCheap) {
  // The contract is "no measurable overhead when disabled": emitting into a
  // disabled collector must be within noise of a bare loop. Bound it
  // generously (10x a relaxed atomic counter loop) so the test never flakes
  // on a loaded machine while still catching an accidental lock or
  // allocation on the fast path.
  TraceCollector &C = TraceCollector::instance();
  ASSERT_FALSE(C.enabled());
  constexpr int N = 1000000;
  std::atomic<uint64_t> Sink{0};
  auto T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != N; ++I)
    Sink.fetch_add(1, std::memory_order_relaxed);
  auto T1 = std::chrono::steady_clock::now();
  for (int I = 0; I != N; ++I)
    C.counter("hot", "t", I);
  auto T2 = std::chrono::steady_clock::now();
  double Base = std::chrono::duration<double>(T1 - T0).count();
  double Traced = std::chrono::duration<double>(T2 - T1).count();
  EXPECT_EQ(C.eventCount(), 0u);
  EXPECT_LT(Traced, Base * 10 + 0.01)
      << "disabled-path emission too slow: " << Traced << "s vs " << Base
      << "s baseline";
}

TEST(Trace, ExportStructure) {
  TraceCollector &C = TraceCollector::instance();
  C.enable();
  C.setThreadName("main");
  C.beginSpan("outer", "test", {{"k", "v"}, {"n", 7}});
  C.instant("ping", "test");
  C.counter("gauge", "test", 42);
  C.endSpan();
  C.disable();

  std::string J = C.exportChromeJson();
  EXPECT_TRUE(structurallyValidJson(J));
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(J.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(J.find("\"k\":\"v\""), std::string::npos);
  EXPECT_NE(J.find("\"n\":7"), std::string::npos);
}

TEST(Trace, RedactedExportIsDeterministic) {
  TraceCollector &C = TraceCollector::instance();
  auto Run = [&C] {
    C.enable();
    C.setThreadName("main");
    for (int I = 0; I != 5; ++I) {
      C.beginSpan("span", "test", {{"i", I}});
      C.instant("mark", "test");
      C.endSpan();
    }
    C.disable();
    TraceCollector::ExportOptions O;
    O.RedactTimes = true;
    return C.exportChromeJson(O);
  };
  std::string First = Run();
  std::string Second = Run();
  EXPECT_EQ(First, Second);
  EXPECT_NE(First.find("\"ts\":0.000"), std::string::npos);
}

TEST(Trace, ArgStringsAreEscaped) {
  TraceCollector &C = TraceCollector::instance();
  C.enable();
  C.instant("evil", "test", {{"file", "a\"b\\c.hpf"}});
  C.disable();
  std::string J = C.exportChromeJson();
  EXPECT_TRUE(structurallyValidJson(J));
  EXPECT_NE(J.find("a\\\"b\\\\c.hpf"), std::string::npos);
}

TEST(Trace, EightWorkerLanesNoCorruption) {
  TraceCollector &C = TraceCollector::instance();
  C.enable();
  C.setThreadName("main");
  {
    ThreadPool Pool(8, "lanetest");
    for (int I = 0; I != 64; ++I)
      Pool.async([&C, I] {
        TraceSpan S("work", "test", {{"i", I}});
        C.instant("tick", "test");
      });
    Pool.wait();
  } // Workers joined: the collector is quiescent.
  C.disable();

  // One lane per worker, registered eagerly at thread start — present even
  // if the scheduler starved some workers of tasks.
  EXPECT_EQ(C.laneCountWithPrefix("lanetest-"), 8u);

  std::string J = C.exportChromeJson();
  EXPECT_TRUE(structurallyValidJson(J));
  // No interleaving corruption: every B has its E, every lane balances.
  EXPECT_EQ(countOccurrences(J, "\"ph\":\"B\""),
            countOccurrences(J, "\"ph\":\"E\""));
  EXPECT_EQ(countOccurrences(J, "\"name\":\"tick\""), 64u);
  for (int W = 0; W != 8; ++W)
    EXPECT_NE(J.find("\"name\":\"lanetest-" + std::to_string(W) + "\""),
              std::string::npos);
}

//===----------------------------------------------------------------------===//
// Placement decision log
//===----------------------------------------------------------------------===//

TEST(DecisionLog, EveryEntryExplained) {
  CompileOptions Opts;
  Opts.Params["n"] = 16;
  Opts.Params["nsteps"] = 2;
  CompileResult R = compileSource(figure1Workload().Source, Opts);
  ASSERT_TRUE(R.Ok) << R.Errors;
  for (const RoutineResult &RR : R.Routines) {
    const DecisionLog &Log = RR.Plan.Decisions;
    ASSERT_FALSE(RR.Plan.Entries.empty());
    ASSERT_FALSE(Log.empty());
    for (const CommEntry &E : RR.Plan.Entries) {
      int Detected = 0, Ranged = 0, Outcomes = 0;
      for (const DecisionEvent &D : Log) {
        if (D.EntryId != E.Id)
          continue;
        Detected += D.Kind == DecisionKind::Detected;
        Ranged += D.Kind == DecisionKind::RangeComputed;
        Outcomes += D.Kind == DecisionKind::RedundancyEliminated ||
                    D.Kind == DecisionKind::CombinedIntoGroup;
      }
      EXPECT_EQ(Detected, 1) << "entry " << E.Id;
      EXPECT_EQ(Ranged, 1) << "entry " << E.Id;
      // Every entry ends somewhere: in a group or folded into a subsumer.
      EXPECT_GE(Outcomes, 1) << "entry " << E.Id;
    }
    // Detection precedes ranges, ranges precede outcomes, and every placed
    // group reports its final position.
    EXPECT_EQ(Log.front().Kind, DecisionKind::Detected);
    int GroupPlaced = 0;
    for (const DecisionEvent &D : Log)
      GroupPlaced += D.Kind == DecisionKind::GroupPlaced;
    EXPECT_EQ(GroupPlaced, static_cast<int>(RR.Plan.Groups.size()));
    // The rendered log is non-empty and line-per-event.
    std::string Text = RR.Plan.decisionsStr();
    EXPECT_EQ(countOccurrences(Text, "\n"), Log.size());
  }
}

TEST(DecisionLog, DeterministicAcrossRuns) {
  CompileOptions Opts;
  Opts.Params["n"] = 16;
  Opts.Params["nsteps"] = 2;
  CompileResult A = compileSource(figure4Workload().Source, Opts);
  CompileResult B = compileSource(figure4Workload().Source, Opts);
  ASSERT_TRUE(A.Ok && B.Ok);
  ASSERT_EQ(A.Routines.size(), B.Routines.size());
  for (size_t I = 0; I != A.Routines.size(); ++I)
    EXPECT_EQ(A.Routines[I].Plan.decisionsStr(),
              B.Routines[I].Plan.decisionsStr());
}
