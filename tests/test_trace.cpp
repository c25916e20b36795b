//===- tests/test_trace.cpp - tracing, metrics, JSON writer tests ---------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "driver/Compile.h"
#include "driver/Pipeline.h"
#include "driver/Serve.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/Synth.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

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

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Start = 0;
  for (size_t NL = Text.find('\n'); NL != std::string::npos;
       NL = Text.find('\n', Start)) {
    Lines.push_back(Text.substr(Start, NL - Start));
    Start = NL + 1;
  }
  return Lines;
}

} // namespace

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

namespace {

/// JSON string escaping done one byte at a time: the wire format the
/// writer must keep.
std::string escapedByteByByte(const std::string &S) {
  std::string Out;
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"')
      Out += "\\\"";
    else if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '\r')
      Out += "\\r";
    else if (U < 0x20)
      Out += strFormat("\\u%04x", U);
    else
      Out += C;
  }
  return Out;
}

} // namespace

TEST(JsonWriter, EscapesHostileStrings) {
  JsonWriter W;
  W.beginObject();
  W.key("path\"with\\both").value("a\"b\\c\nd\te");
  W.endObject();
  EXPECT_EQ(W.str(),
            "{\"path\\\"with\\\\both\":\"a\\\"b\\\\c\\nd\\te\"}");
  EXPECT_TRUE(structurallyValidJson(W.str()));

  // Escapes at the first and last byte of a long plain run, every control
  // byte, DEL and multi-byte UTF-8 (both pass through raw).
  std::string Controls;
  for (int C = 0; C != 0x20; ++C)
    Controls += static_cast<char>(C);
  const std::vector<std::string> Hostile = {
      "",
      "\"" + std::string(1000, 'x') + "\\",
      "\n" + std::string(64, 'y') + "\x01",
      Controls,
      "a\x7f" + Controls + "z",
      "caf\xc3\xa9 \xe2\x82\xac \xf0\x9d\x84\x9e\"",
  };
  for (const std::string &S : Hostile) {
    JsonWriter HW;
    HW.beginObject();
    HW.key(S).value(S);
    HW.key("c").value(S.c_str());
    HW.endObject();
    std::string E = escapedByteByByte(S);
    EXPECT_EQ(HW.str(), "{\"" + E + "\":\"" + E + "\",\"c\":\"" +
                            escapedByteByByte(S.c_str()) + "\"}");
    EXPECT_EQ(jsonEscape(S), E);
    EXPECT_TRUE(structurallyValidJson(HW.str()));
  }
  EXPECT_EQ(jsonEscape(std::string("\x00\x01\x1f\x7f", 4)),
            "\\u0000\\u0001\\u001f\x7f");
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

TEST(Trace, PooledCompileOpensRoutineRegionsOnTheirWorkersLanes) {
  // A session that lends its routines to a pool: each routine region's span
  // opens and closes on the lane of the thread that ran it, so every lane
  // balances, and each timed pass shows every routine exactly once.
  TraceCollector &C = TraceCollector::instance();
  C.enable();
  C.setThreadName("main");
  {
    ThreadPool Pool(4, "fan");
    CompileOptions Opts;
    Opts.Verify = VerifyMode::Final;
    Opts.Lint = true;
    Session S(synthRoutinesSource(8, 20, 3), Opts, &Pool);
    EXPECT_TRUE(S.run());
  } // Workers joined: the collector is quiescent.
  C.disable();

  JsonValue Trace;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(C.exportChromeJson(), Trace, Err)) << Err;
  std::map<int64_t, std::string> LaneNames;
  std::map<int64_t, int> Depth;
  std::map<std::string, int> RoutineSpans;
  for (const JsonValue &Ev : Trace.get("traceEvents")->array()) {
    const std::string &Ph = Ev.get("ph")->stringValue();
    int64_t Tid = Ev.get("tid")->intValue();
    if (Ph == "M")
      LaneNames[Tid] = Ev.get("args")->get("name")->stringValue();
    if (Ph == "E") {
      EXPECT_GE(--Depth[Tid], 0) << "lane " << Tid;
      continue;
    }
    if (Ph != "B")
      continue;
    ++Depth[Tid];
    const std::string &Name = Ev.get("name")->stringValue();
    if (Ev.get("cat")->stringValue() == "region" && Name[0] == 'r') {
      ++RoutineSpans[Name];
      EXPECT_TRUE(LaneNames[Tid] == "main" ||
                  LaneNames[Tid].rfind("fan-", 0) == 0)
          << Name << " on lane '" << LaneNames[Tid] << "'";
    }
  }
  for (const auto &[Tid, D] : Depth)
    EXPECT_EQ(D, 0) << "lane " << Tid;
  // build-context, placement, lower, verify and lint time each routine.
  ASSERT_EQ(RoutineSpans.size(), 8u);
  for (const auto &[Name, N] : RoutineSpans)
    EXPECT_EQ(N, 5) << Name;
}

//===----------------------------------------------------------------------===//
// Placement decision log
//===----------------------------------------------------------------------===//

namespace {

/// The "decision" instants of an exported trace, per routine, in emission
/// order.
std::map<std::string, std::vector<const JsonValue *>>
decisionInstants(const JsonValue &Trace) {
  std::map<std::string, std::vector<const JsonValue *>> Out;
  for (const JsonValue &Ev : Trace.get("traceEvents")->array()) {
    const JsonValue *Cat = Ev.get("cat");
    if (Cat && Cat->stringValue() == "decision")
      Out[Ev.get("args")->get("routine")->stringValue()].push_back(&Ev);
  }
  return Out;
}

/// The decisionsStr() line a traced decision instant stands for, rebuilt
/// from the instant's name and args.
std::string lineOfInstant(const JsonValue &Ev) {
  const std::string &Kind = Ev.get("name")->stringValue();
  const JsonValue &Args = *Ev.get("args");
  std::string Line = strFormat("  %-21s", Kind.c_str());
  if (const JsonValue *Entry = Args.get("entry"))
    Line += strFormat(" entry=%lld",
                      static_cast<long long>(Entry->intValue()));
  if (const JsonValue *Other = Args.get("other"))
    Line += strFormat(" %s=%lld",
                      Kind == "combined-into-group" || Kind == "group-placed" ||
                              Kind == "lowered-as"
                          ? "group"
                          : "subsumer",
                      static_cast<long long>(Other->intValue()));
  if (const JsonValue *Slot = Args.get("slot"))
    Line += " @" + Slot->stringValue();
  if (const JsonValue *Detail = Args.get("detail"))
    Line += " " + Detail->stringValue();
  return Line;
}

} // namespace

TEST(DecisionLog, EveryEntryExplained) {
  CompileOptions Opts;
  Opts.Params["n"] = 16;
  Opts.Params["nsteps"] = 2;
  TraceCollector &C = TraceCollector::instance();
  C.enable();
  CompileResult R = compileSource(figure1Workload().Source, Opts);
  C.disable();
  ASSERT_TRUE(R.Ok) << R.Errors;
  JsonValue Trace;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(C.exportChromeJson(), Trace, Err)) << Err;
  auto Instants = decisionInstants(Trace);
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
    std::string Text = RR.Plan.decisionsStr(*RR.R);
    EXPECT_EQ(countOccurrences(Text, "\n"), Log.size());
    // Each traced instant carries exactly the rendered event: its detail
    // is the text the log line ends with.
    const std::vector<const JsonValue *> &Traced = Instants[RR.R->name()];
    ASSERT_EQ(Traced.size(), Log.size());
    std::vector<std::string> Lines = splitLines(Text);
    ASSERT_EQ(Lines.size(), Log.size());
    for (size_t I = 0; I != Log.size(); ++I) {
      EXPECT_NE(Traced[I]->get("args")->get("detail"), nullptr) << Lines[I];
      EXPECT_EQ(lineOfInstant(*Traced[I]), Lines[I]);
    }
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
    EXPECT_EQ(A.Routines[I].Plan.decisionsStr(*A.Routines[I].R),
              B.Routines[I].Plan.decisionsStr(*B.Routines[I].R));
}

namespace {

/// One input of the golden decision-log corpus (tests/golden/decisions).
/// Each file is the output of `gca-compile --no-plans --dump-decisions`
/// with the case's options, for one input: a built-in workload's file is
/// that workload's section of the `--workloads` output, a synth case's is
/// `--synth=16 --synth-seed=S`.
struct GoldenCase {
  std::string File;
  std::string Name;
  std::string Source;
  Strategy Strat = Strategy::Global;
  bool DeferReductions = false;
  bool PartialRedundancy = false;
};

std::string readGolden(const std::string &File) {
  std::ifstream In(std::string(GCA_GOLDEN_DIR) + "/decisions/" + File);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

TEST(DecisionLog, GoldenTextMatchesByteForByte) {
  std::ifstream Jacobi(std::string(GCA_EXAMPLES_DIR) + "/jacobi.hpf");
  std::stringstream JacobiSource;
  JacobiSource << Jacobi.rdbuf();
  auto synth = [](int Seed) {
    SynthSpec Spec;
    Spec.Nests = 16;
    Spec.Seed = static_cast<uint64_t>(Seed);
    return std::make_pair(synthName(Spec), synthSource(Spec));
  };
  std::vector<GoldenCase> Cases;
  Cases.push_back({"jacobi.comb.txt", "examples/jacobi.hpf",
                   JacobiSource.str()});
  for (const Workload *W :
       {&figure4Workload(), &shallowWorkload(), &gravityWorkload()})
    for (Strategy S : {Strategy::Orig, Strategy::Earliest, Strategy::Global})
      Cases.push_back({W->Name + "." + strategyName(S) + ".txt", W->Name,
                       W->Source, S});
  for (const Workload *W : {&hydfloWorkload(), &gravityWorkload()})
    Cases.push_back({W->Name + ".comb.defer-partial.txt", W->Name, W->Source,
                     Strategy::Global, true, true});
  auto [Synth9Name, Synth9] = synth(9); // Fused exchange phases.
  Cases.push_back({"synth16s9.comb.txt", Synth9Name, Synth9});
  auto [Synth7Name, Synth7] = synth(7); // A partially reduced entry.
  Cases.push_back({"synth16s7.nored.partial.txt", Synth7Name, Synth7,
                   Strategy::Earliest, false, true});

  std::set<DecisionKind> Seen;
  for (const GoldenCase &GC : Cases) {
    CompileOptions Opts;
    Opts.Placement.Strat = GC.Strat;
    Opts.Placement.DeferReductions = GC.DeferReductions;
    Opts.Placement.PartialRedundancy = GC.PartialRedundancy;
    Session S(GC.Source, Opts);
    S.run();
    CompileResult R = S.take();
    ASSERT_TRUE(R.Ok) << GC.File << ": " << R.Errors;
    for (const RoutineResult &RR : R.Routines)
      for (const DecisionEvent &E : RR.Plan.Decisions)
        Seen.insert(E.Kind);
    std::string Golden = readGolden(GC.File);
    ASSERT_FALSE(Golden.empty()) << GC.File;
    EXPECT_EQ(renderCompileOutput(GC.Name, S, R, /*PrintPlans=*/false,
                                  /*Stats=*/false, /*DumpDecisions=*/true),
              Golden)
        << GC.File;
  }
  for (int K = 0; K <= static_cast<int>(DecisionKind::LoweredAs); ++K)
    EXPECT_TRUE(Seen.count(static_cast<DecisionKind>(K)))
        << decisionKindName(static_cast<DecisionKind>(K))
        << " occurs nowhere in the golden corpus";
}
