//===- tests/test_support.cpp - support library tests ---------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/Diag.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <thread>

using namespace gca;

TEST(StrUtil, FormatBasics) {
  EXPECT_EQ(strFormat("x=%d", 42), "x=42");
  EXPECT_EQ(strFormat("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(strFormat("%.2f", 1.5), "1.50");
}

TEST(StrUtil, FormatLongString) {
  std::string Long(1000, 'x');
  EXPECT_EQ(strFormat("%s", Long.c_str()).size(), 1000u);
}

TEST(StrUtil, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StrUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\na b\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StrUtil, FormatBytes) {
  EXPECT_EQ(formatBytes(512), "512 B");
  EXPECT_EQ(formatBytes(20 * 1024), "20.0 KB");
  EXPECT_EQ(formatBytes(3.5 * 1024 * 1024), "3.5 MB");
}

TEST(StrUtil, FormatSeconds) {
  EXPECT_EQ(formatSeconds(42e-6), "42.0 us");
  EXPECT_EQ(formatSeconds(12.3e-3), "12.30 ms");
  EXPECT_EQ(formatSeconds(2.5), "2.500 s");
}

TEST(Diag, ErrorAccumulation) {
  DiagEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(3, 7), "bad token '%s'", "x");
  D.warning(SourceLoc(4, 1), "suspicious");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.diags().size(), 2u);
  EXPECT_NE(D.str().find("error: 3:7: bad token 'x'"), std::string::npos);
  EXPECT_NE(D.str().find("warning: 4:1: suspicious"), std::string::npos);
}

TEST(Diag, Clear) {
  DiagEngine D;
  D.error(SourceLoc(), "boom");
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.diags().empty());
}

TEST(Diag, InvalidLocOmitted) {
  DiagEngine D;
  D.error(SourceLoc(), "no location");
  EXPECT_EQ(D.diags()[0].str(), "error: no location");
}

TEST(SourceLoc, Str) {
  EXPECT_EQ(SourceLoc().str(), "<unknown>");
  EXPECT_EQ(SourceLoc(12, 3).str(), "12:3");
  EXPECT_TRUE(SourceLoc(1, 1).isValid());
  EXPECT_FALSE(SourceLoc().isValid());
}

//===----------------------------------------------------------------------===//
// StatsRegistry
//===----------------------------------------------------------------------===//

TEST(Stats, AddGetSnapshot) {
  StatsRegistry S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.get("x"), 0);
  S.add("x");
  S.add("x", 4);
  S.add("y", 2);
  EXPECT_EQ(S.get("x"), 5);
  StatsRegistry::Snapshot Snap = S.snapshot();
  EXPECT_EQ(Snap.size(), 2u);
  EXPECT_EQ(Snap.at("y"), 2);
}

TEST(Stats, DiffReportsOnlyChanges) {
  StatsRegistry S;
  S.add("a", 1);
  StatsRegistry::Snapshot Before = S.snapshot();
  S.add("a", 2);
  S.add("b", 7);
  StatsRegistry::Snapshot D = S.diff(Before);
  EXPECT_EQ(D.size(), 2u);
  EXPECT_EQ(D.at("a"), 2);
  EXPECT_EQ(D.at("b"), 7);
  EXPECT_TRUE(S.diff(S.snapshot()).empty());
}

TEST(Stats, MergeAndRender) {
  StatsRegistry A, B;
  A.add("n", 1);
  B.add("n", 2);
  B.add("m", 3);
  A.merge(std::move(B));
  EXPECT_EQ(A.get("n"), 3);
  EXPECT_EQ(A.get("m"), 3);
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(A.json(), "{\"m\":3,\"n\":3}");
  EXPECT_NE(A.str().find("3 m\n"), std::string::npos);
}

TEST(Stats, ConcurrentAddsAreAtomic) {
  StatsRegistry S;
  ThreadPool Pool(4);
  for (int I = 0; I != 64; ++I)
    Pool.async([&S] { S.add("hits", 10); });
  Pool.wait();
  EXPECT_EQ(S.get("hits"), 640);
}

//===----------------------------------------------------------------------===//
// TimeTrace
//===----------------------------------------------------------------------===//

TEST(Timer, NestedRegionsAccumulate) {
  TimeTrace T;
  for (int I = 0; I != 2; ++I) {
    ScopedTimer Outer(T, "outer");
    ScopedTimer Inner(T, "inner");
  }
  const TimeTrace::Node *Outer = T.root().child("outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->Time.Invocations, 2);
  const TimeTrace::Node *Inner = Outer->child("inner");
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->Time.Invocations, 2);
  EXPECT_EQ(T.root().child("inner"), nullptr);
  EXPECT_GE(Outer->Time.WallSec, Inner->Time.WallSec);
}

TEST(Timer, ExitReturnsDelta) {
  TimeTrace T;
  T.enter("r");
  TimeRecord D = T.exit();
  EXPECT_EQ(D.Invocations, 1);
  EXPECT_GE(D.WallSec, 0.0);
  EXPECT_EQ(T.total().Invocations, 1);
}

TEST(Timer, AddRecordsARegionTimedOnAnotherThread) {
  TimeTrace T;
  T.enter("pass");
  TimeRecord Here{0.5, 0.25, 1};
  TimeRecord There{2.0, 1.5, 1};
  T.add("r0", Here, /*OtherThread=*/false);
  T.add("r1", There, /*OtherThread=*/true);
  T.add("r0", Here, /*OtherThread=*/false);
  TimeRecord Pass = T.exit();
  const TimeTrace::Node *P = T.root().child("pass");
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(P->Children.size(), 2u);
  EXPECT_EQ(P->Children[0]->Name, "r0");
  EXPECT_EQ(P->Children[0]->Time.Invocations, 2);
  EXPECT_EQ(P->Children[0]->Time.CpuSec, 0.5);
  EXPECT_EQ(P->Children[1]->Name, "r1");
  EXPECT_EQ(P->Children[1]->Time.WallSec, 2.0);
  // Only the other thread's CPU joins the pass: this thread's own clock
  // already covers the regions it ran.
  EXPECT_GE(Pass.CpuSec, 1.5);
  EXPECT_LT(Pass.CpuSec, 1.5 + 0.25);
  EXPECT_LT(Pass.WallSec, 2.0);
  EXPECT_EQ(P->Time.CpuSec, Pass.CpuSec);
}

TEST(Timer, ReportAndJsonShapes) {
  TimeTrace T;
  {
    ScopedTimer A(T, "alpha");
    ScopedTimer B(T, "beta");
  }
  std::string Report = T.report();
  EXPECT_NE(Report.find("alpha"), std::string::npos);
  EXPECT_NE(Report.find("  beta"), std::string::npos);
  EXPECT_NE(Report.find("total"), std::string::npos);
  std::string Json = T.json();
  EXPECT_EQ(Json.front(), '[');
  EXPECT_NE(Json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(Json.find("\"children\":[{\"name\":\"beta\""),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryTask) {
  std::atomic<int> Count{0};
  ThreadPool Pool(8);
  for (int I = 0; I != 100; ++I)
    Pool.async([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  std::atomic<int> Count{0};
  ThreadPool Pool(2);
  Pool.async([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 1);
  Pool.async([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 2);
}

TEST(ThreadPoolTest, ForEachRunsEveryIndexOnce) {
  ThreadPool Pool(4);
  for (size_t N : {0, 1, 100}) {
    std::vector<std::atomic<int>> Runs(N);
    Pool.forEach(N, [&Runs](size_t I) { ++Runs[I]; });
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Runs[I].load(), 1) << "N=" << N << " index " << I;
  }
}

TEST(ThreadPoolTest, ForEachInsideTheOnlyWorkerRunsOnTheCaller) {
  ThreadPool Pool(1);
  int Runs = 0, OnCaller = 0;
  bool Returned = false;
  Pool.async([&] {
    std::thread::id Caller = std::this_thread::get_id();
    Pool.forEach(10, [&](size_t) {
      ++Runs;
      OnCaller += std::this_thread::get_id() == Caller;
    });
    Returned = true;
  });
  Pool.wait();
  EXPECT_TRUE(Returned);
  EXPECT_EQ(Runs, 10);
  EXPECT_EQ(OnCaller, 10);
}

TEST(ThreadPoolTest, ForEachCompletesWhileEveryOtherWorkerIsBlocked) {
  ThreadPool Pool(4);
  std::mutex Mu;
  std::condition_variable CV;
  int Blocked = 0;
  bool LatchOpen = false, Returned = false;
  for (int W = 0; W != 3; ++W)
    Pool.async([&] {
      std::unique_lock<std::mutex> Lock(Mu);
      ++Blocked;
      CV.notify_all();
      CV.wait(Lock, [&] { return LatchOpen; });
    });
  {
    std::unique_lock<std::mutex> Lock(Mu);
    CV.wait(Lock, [&] { return Blocked == 3; });
  }
  std::atomic<int> Runs{0};
  Pool.async([&] {
    Pool.forEach(50, [&Runs](size_t) { ++Runs; });
    std::lock_guard<std::mutex> Lock(Mu);
    Returned = true;
    CV.notify_all();
  });
  bool InTime;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    InTime = CV.wait_for(Lock, std::chrono::seconds(60),
                         [&] { return Returned; });
    // Open the latch either way, so a failure fails instead of hanging.
    LatchOpen = true;
    CV.notify_all();
  }
  Pool.wait();
  EXPECT_TRUE(InTime) << "forEach waited on a worker that never came";
  EXPECT_EQ(Runs.load(), 50);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(3);
    for (int I = 0; I != 20; ++I)
      Pool.async([&Count] { ++Count; });
  }
  EXPECT_EQ(Count.load(), 20);
}

//===----------------------------------------------------------------------===//
// JsonValue (the wire-protocol reader)
//===----------------------------------------------------------------------===//

#include "support/Json.h"

namespace {

JsonValue parseOk(const std::string &Text) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(JsonValue::parse(Text, V, Err)) << Text << ": " << Err;
  return V;
}

bool parseFails(const std::string &Text) {
  JsonValue V;
  std::string Err;
  return !JsonValue::parse(Text, V, Err);
}

} // namespace

TEST(JsonValueTest, Scalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").boolValue());
  EXPECT_FALSE(parseOk("false").boolValue());
  EXPECT_EQ(parseOk("42").intValue(), 42);
  EXPECT_EQ(parseOk("-7").intValue(), -7);
  EXPECT_TRUE(parseOk("42").isIntegral());
  EXPECT_FALSE(parseOk("42.5").isIntegral());
  EXPECT_DOUBLE_EQ(parseOk("42.5").numberValue(), 42.5);
  EXPECT_DOUBLE_EQ(parseOk("1e3").numberValue(), 1000.0);
  EXPECT_EQ(parseOk("\"hi\"").stringValue(), "hi");
}

TEST(JsonValueTest, StringEscapes) {
  EXPECT_EQ(parseOk("\"a\\n\\t\\\"b\\\\\"").stringValue(), "a\n\t\"b\\");
  EXPECT_EQ(parseOk("\"\\u0041\"").stringValue(), "A");
  // Surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").stringValue(), "\xf0\x9f\x98\x80");
  EXPECT_TRUE(parseFails("\"\\ud83d\"")); // Lone high surrogate.
  EXPECT_TRUE(parseFails("\"\\x41\""));   // Bad escape.
  EXPECT_TRUE(parseFails("\"unterminated"));
}

TEST(JsonValueTest, Containers) {
  JsonValue A = parseOk("[1,\"two\",[3],{\"k\":4}]");
  ASSERT_TRUE(A.isArray());
  ASSERT_EQ(A.array().size(), 4u);
  EXPECT_EQ(A.array()[0].intValue(), 1);
  EXPECT_EQ(A.array()[1].stringValue(), "two");
  EXPECT_EQ(A.array()[2].array()[0].intValue(), 3);
  const JsonValue *K = A.array()[3].get("k");
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(K->intValue(), 4);

  JsonValue O = parseOk("{\"a\":1,\"b\":{\"c\":[true]}}");
  ASSERT_TRUE(O.isObject());
  EXPECT_EQ(O.members().size(), 2u);
  EXPECT_EQ(O.get("a")->intValue(), 1);
  EXPECT_TRUE(O.get("b")->get("c")->array()[0].boolValue());
  EXPECT_EQ(O.get("missing"), nullptr);
}

TEST(JsonValueTest, StrictnessAndLimits) {
  EXPECT_TRUE(parseFails(""));
  EXPECT_TRUE(parseFails("{"));
  EXPECT_TRUE(parseFails("[1,]"));
  EXPECT_TRUE(parseFails("{\"a\":}"));
  EXPECT_TRUE(parseFails("{\"a\" 1}"));
  EXPECT_TRUE(parseFails("1 2"));        // Trailing bytes.
  EXPECT_TRUE(parseFails("{} garbage")); // Trailing bytes.
  EXPECT_TRUE(parseFails("nul"));
  // Nesting is capped so adversarial frames cannot exhaust the stack.
  EXPECT_TRUE(parseFails(std::string(100, '[') + std::string(100, ']')));
  EXPECT_FALSE(parseFails(std::string(32, '[') + std::string(32, ']')));
  // Leading/trailing whitespace is fine.
  EXPECT_EQ(parseOk("  {\"a\": 1}\n").get("a")->intValue(), 1);
}

TEST(JsonValueTest, RoundTripsThroughWriter) {
  // What JsonWriter emits, JsonValue parses back — the two halves of the
  // wire protocol agree with each other.
  JsonWriter W;
  W.beginObject();
  W.key("name").value("we\"ird\\name\n");
  W.key("n").value(static_cast<int64_t>(-123));
  W.key("flag").value(true);
  W.key("xs").beginArray();
  W.value(static_cast<int64_t>(1));
  W.value("two");
  W.endArray();
  W.endObject();
  JsonValue V = parseOk(W.str());
  EXPECT_EQ(V.get("name")->stringValue(), "we\"ird\\name\n");
  EXPECT_EQ(V.get("n")->intValue(), -123);
  EXPECT_TRUE(V.get("flag")->boolValue());
  EXPECT_EQ(V.get("xs")->array()[1].stringValue(), "two");

  // Hostile strings and seeded random byte strings survive as keys and as
  // values: escapes at the first and last byte of a long run, every
  // control byte, DEL and multi-byte UTF-8.
  std::string Controls;
  for (int C = 0; C != 0x20; ++C)
    Controls += static_cast<char>(C);
  std::vector<std::string> Inputs = {
      "",
      "\"" + std::string(1000, 'x') + "\\",
      Controls,
      "a\x7f" + Controls + "z",
      "caf\xc3\xa9 \xe2\x82\xac \xf0\x9d\x84\x9e\"",
  };
  std::mt19937 Rng(17);
  for (int I = 0; I != 200; ++I) {
    std::string S(Rng() % 300, '\0');
    for (char &C : S)
      C = static_cast<char>(Rng() & 0xff);
    Inputs.push_back(std::move(S));
  }
  JsonWriter RW;
  RW.beginArray();
  for (const std::string &S : Inputs)
    RW.beginObject().key(S).value(S).endObject();
  RW.endArray();
  JsonValue RV = parseOk(RW.str());
  ASSERT_EQ(RV.array().size(), Inputs.size());
  for (size_t I = 0; I != Inputs.size(); ++I) {
    const auto &Members = RV.array()[I].members();
    ASSERT_EQ(Members.size(), 1u) << I;
    EXPECT_EQ(Members[0].first, Inputs[I]) << I;
    EXPECT_EQ(Members[0].second.stringValue(), Inputs[I]) << I;
  }
}
