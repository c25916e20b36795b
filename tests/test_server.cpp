//===- tests/test_server.cpp - Compile-server protocol tests --------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Tier-1 coverage for the compile server (driver/Serve.h): framing
// round-trips, malformed-frame handling that degrades one connection and
// never the process, bitwise-identity of served responses against the
// one-shot pipeline, shared-cache accounting across clients, admission
// control, deadlines, graceful drain under load, I/O fault injection, and a
// bounded protocol-fuzz pass (the open-ended campaign lives in the
// `fuzz-proto` shard of gca_fuzz_tests).
//
//===----------------------------------------------------------------------===//

#include "ServeTestUtil.h"
#include "FuzzGen.h"
#include "driver/CachedPipeline.h"
#include "support/Io.h"
#include "workloads/Synth.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

#include <unistd.h>

using namespace gca;
using namespace gca::servetest;

namespace {

std::string smallSource() {
  SynthSpec Spec;
  Spec.Nests = 5;
  Spec.Seed = 2;
  return synthSource(Spec);
}

std::string slowSource() {
  SynthSpec Spec;
  Spec.Nests = 300;
  Spec.Seed = 4;
  return synthSource(Spec);
}

CompileRequest requestFor(std::string Source, int64_t Id) {
  CompileRequest Req;
  Req.Id = Id;
  Req.Name = "request-" + std::to_string(Id);
  Req.Source = std::move(Source);
  return Req;
}

/// Arms the global fault injector for one scope; always disarms on exit so
/// later tests see clean I/O.
struct FaultScope {
  explicit FaultScope(const std::string &Spec) {
    EXPECT_TRUE(FaultInjector::instance().configure(Spec));
  }
  ~FaultScope() { FaultInjector::instance().reset(); }
};

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

TEST(FrameTest, RoundTripOverPipe) {
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  for (const std::string &Payload :
       {std::string(), std::string("x"), std::string(100000, 'q')}) {
    // Large payloads exceed the pipe's buffer, so the writer needs its own
    // thread for the reader to drain it concurrently.
    std::thread Writer(
        [&] { ASSERT_EQ(writeFrame(P[1], Payload), FrameStatus::Ok); });
    std::string Got;
    ASSERT_EQ(readFrame(P[0], Got), FrameStatus::Ok);
    Writer.join();
    EXPECT_EQ(Got, Payload);
  }
  ::close(P[1]);
  std::string Got;
  EXPECT_EQ(readFrame(P[0], Got), FrameStatus::Eof); // Clean boundary.
  ::close(P[0]);
}

TEST(FrameTest, GarbageHeaderDetected) {
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  ASSERT_EQ(ioWriteFull(P[1], "XXXXYYYY", 8), IoStatus::Ok);
  std::string Got;
  EXPECT_EQ(readFrame(P[0], Got), FrameStatus::Garbage);
  ::close(P[0]);
  ::close(P[1]);
}

TEST(FrameTest, TruncationDistinguishedFromEof) {
  // Mid-header cut.
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  ASSERT_EQ(ioWriteFull(P[1], "GCA", 3), IoStatus::Ok);
  ::close(P[1]);
  std::string Got;
  EXPECT_EQ(readFrame(P[0], Got), FrameStatus::Truncated);
  ::close(P[0]);

  // Mid-payload cut: a complete header promising more than is delivered.
  ASSERT_EQ(::pipe(P), 0);
  std::string Frame = encodeFrame("0123456789");
  Frame.resize(Frame.size() - 4);
  ASSERT_EQ(ioWriteFull(P[1], Frame.data(), Frame.size()), IoStatus::Ok);
  ::close(P[1]);
  EXPECT_EQ(readFrame(P[0], Got), FrameStatus::Truncated);
  ::close(P[0]);
}

TEST(FrameTest, OversizedDeclaredLengthRejected) {
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  std::string Frame = encodeFrame(std::string(4096, 'z'));
  ASSERT_EQ(ioWriteFull(P[1], Frame.data(), Frame.size()), IoStatus::Ok);
  std::string Got;
  uint32_t Declared = 0;
  EXPECT_EQ(readFrame(P[0], Got, /*MaxPayload=*/1024, &Declared),
            FrameStatus::Oversized);
  EXPECT_EQ(Declared, 4096u);
  ::close(P[0]);
  ::close(P[1]);
}

//===----------------------------------------------------------------------===//
// Request encoding
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, BuildParseRoundTrip) {
  CompileRequest Req = requestFor("begin r\nend\n", 42);
  Req.Stats = true;
  Req.PrintPlans = false;
  Req.Opts.Placement.Strat = Strategy::Optimal;
  Req.Opts.FuseLoops = true;
  Req.Opts.Verify = VerifyMode::Each;
  Req.Opts.Params["n"] = 128;
  std::string Wire = buildCompileRequestJson(Req);

  JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(JsonValue::parse(Wire, Doc, Err)) << Err;
  CompileRequest Back;
  ASSERT_TRUE(parseCompileRequest(Doc, Back, Err)) << Err;
  EXPECT_EQ(buildCompileRequestJson(Back), Wire);
  EXPECT_EQ(Back.Opts.Placement.Strat, Strategy::Optimal);
  EXPECT_EQ(Back.Opts.Verify, VerifyMode::Each);
  EXPECT_EQ(Back.Opts.Params["n"], 128);
}

TEST(ServeProtocolTest, StrictParsingRejectsUnknownAndMistyped) {
  auto Fails = [](const std::string &Json) {
    JsonValue Doc;
    std::string Err;
    EXPECT_TRUE(JsonValue::parse(Json, Doc, Err)) << Err;
    CompileRequest Req;
    return !parseCompileRequest(Doc, Req, Err);
  };
  EXPECT_TRUE(Fails("{\"source\":\"s\",\"bogus\":1}"));
  EXPECT_TRUE(Fails("{\"name\":\"no-source\"}"));
  EXPECT_TRUE(Fails("{\"source\":42}"));
  EXPECT_TRUE(Fails("{\"source\":\"s\",\"id\":\"seven\"}"));
  EXPECT_TRUE(Fails("{\"source\":\"s\",\"options\":{\"bogus\":true}}"));
  EXPECT_TRUE(Fails("{\"source\":\"s\",\"options\":{\"strategy\":\"nope\"}}"));
  EXPECT_TRUE(Fails(
      "{\"source\":\"s\",\"options\":{\"params\":{\"n\":\"many\"}}}"));
  // A dump-after selector must name a pass of the standard pipeline.
  EXPECT_TRUE(
      Fails("{\"source\":\"s\",\"options\":{\"dump_after\":\"bogus\"}}"));
  EXPECT_FALSE(Fails(
      "{\"source\":\"s\",\"options\":{\"dump_after\":\"placement\"}}"));
}

//===----------------------------------------------------------------------===//
// Serving
//===----------------------------------------------------------------------===//

TEST(ServerTest, PingMetricsAndUnknownCmd) {
  TestServer TS{ServerConfig{}};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  JsonValue Pong = sendRecv(Fd, "{\"cmd\":\"ping\"}");
  EXPECT_EQ(status(Pong), "ok");
  const JsonValue *P = Pong.get("pong");
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->boolValue());

  JsonValue Metrics = sendRecv(Fd, "{\"cmd\":\"metrics\"}");
  EXPECT_EQ(status(Metrics), "ok");
  const JsonValue *M = Metrics.get("metrics");
  ASSERT_NE(M, nullptr);
  ASSERT_TRUE(M->isObject());

  JsonValue Unknown = sendRecv(Fd, "{\"cmd\":\"selfdestruct\"}");
  EXPECT_EQ(status(Unknown), "bad-request");
  // The connection survives a bad request: framing is still synchronized.
  EXPECT_EQ(status(sendRecv(Fd, "{\"cmd\":\"ping\"}")), "ok");
  ::close(Fd);
}

TEST(ServerTest, ResponseBitwiseIdenticalToOneShot) {
  CompileRequest Req = requestFor(smallSource(), 1);
  std::string Expected = runCompileRequest(Req, nullptr).Output;
  ASSERT_FALSE(Expected.empty());

  TestServer TS{ServerConfig{}};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  JsonValue Resp = sendRecv(Fd, buildCompileRequestJson(Req));
  EXPECT_EQ(status(Resp), "ok");
  EXPECT_EQ(respId(Resp), 1);
  EXPECT_EQ(output(Resp), Expected);
  ::close(Fd);
}

TEST(ServerTest, ConcurrentClientsBitwiseIdentical) {
  const int NumClients = 4, PerClient = 4;
  std::vector<std::string> Sources = {smallSource(), slowSource()};
  std::vector<std::string> Expected;
  for (size_t I = 0; I < Sources.size(); ++I) {
    CompileRequest Req = requestFor(Sources[I], 0);
    Req.Name = "mixed-" + std::to_string(I);
    Expected.push_back(runCompileRequest(Req, nullptr).Output);
  }

  ResultCache Cache;
  ServerConfig Config;
  Config.Cache = &Cache;
  TestServer TS{Config};
  std::atomic<int> Mismatches{0}, Failures{0};
  std::vector<std::thread> Clients;
  for (int C = 0; C < NumClients; ++C)
    Clients.emplace_back([&, C] {
      int Fd = TS.connect();
      if (Fd < 0) {
        Failures++;
        return;
      }
      for (int I = 0; I < PerClient; ++I) {
        size_t Pick = static_cast<size_t>(C + I) % Sources.size();
        CompileRequest Req = requestFor(Sources[Pick], C * 100 + I);
        // The id is not part of the rendered output: use a fixed name so
        // every client's request hits the same cache key and bytes.
        Req.Name = "mixed-" + std::to_string(Pick);
        JsonValue Resp = sendRecv(Fd, buildCompileRequestJson(Req));
        if (status(Resp) != "ok" || respId(Resp) != C * 100 + I)
          Failures++;
        if (output(Resp) != Expected[Pick])
          Mismatches++;
      }
      ::close(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_EQ(TS.server().counter("server.ok"),
            static_cast<int64_t>(NumClients * PerClient));
}

TEST(ServerTest, SharedCacheHitsAcrossClients) {
  ResultCache Cache;
  ServerConfig Config;
  Config.Cache = &Cache;
  TestServer TS{Config};

  CompileRequest Req = requestFor(smallSource(), 1);
  int A = TS.connect();
  ASSERT_GE(A, 0);
  JsonValue RespA = sendRecv(A, buildCompileRequestJson(Req));
  ASSERT_EQ(status(RespA), "ok");
  const JsonValue *HitA = RespA.get("cache_hit");
  ASSERT_NE(HitA, nullptr);
  EXPECT_FALSE(HitA->boolValue());

  // A different client, the same source: must replay from the shared cache.
  int B = TS.connect();
  ASSERT_GE(B, 0);
  Req.Id = 2;
  JsonValue RespB = sendRecv(B, buildCompileRequestJson(Req));
  ASSERT_EQ(status(RespB), "ok");
  const JsonValue *HitB = RespB.get("cache_hit");
  ASSERT_NE(HitB, nullptr);
  EXPECT_TRUE(HitB->boolValue());
  EXPECT_EQ(output(RespA), output(RespB));
  EXPECT_EQ(TS.server().counter("server.cache-hits"), 1);
  EXPECT_GE(TS.server().counter("cache.hits"), 1);
  ::close(A);
  ::close(B);
}

TEST(ServerTest, BadFrameKillsOnlyItsConnection) {
  TestServer TS{ServerConfig{}};
  int A = TS.connect();
  int B = TS.connect();
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);

  // Garbage on A: one bad-frame response, then the connection closes.
  ASSERT_EQ(ioWriteFull(A, "NOPE\x01\x02\x03\x04", 8), IoStatus::Ok);
  JsonValue Resp = recvJson(A);
  EXPECT_EQ(status(Resp), "bad-frame");
  std::string Rest;
  EXPECT_EQ(readFrame(A, Rest), FrameStatus::Eof);

  // B is a separate failure domain: still fully served.
  CompileRequest Req = requestFor(smallSource(), 9);
  EXPECT_EQ(status(sendRecv(B, buildCompileRequestJson(Req))), "ok");
  EXPECT_EQ(TS.server().counter("server.bad-frames"), 1);
  ::close(A);
  ::close(B);
}

TEST(ServerTest, OversizedFrameRejectedWithoutReading) {
  ServerConfig Config;
  Config.MaxFramePayload = 1024;
  TestServer TS{Config};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  std::string Big = encodeFrame(std::string(4096, 'z'));
  ASSERT_EQ(ioWriteFull(Fd, Big.data(), Big.size()), IoStatus::Ok);
  JsonValue Resp = recvJson(Fd);
  EXPECT_EQ(status(Resp), "bad-frame");
  // The server closes without draining the oversized payload, so the kernel
  // may surface the discard as a reset rather than a clean EOF.
  std::string Rest;
  FrameStatus Fin = readFrame(Fd, Rest);
  EXPECT_TRUE(Fin == FrameStatus::Eof || Fin == FrameStatus::IoError);
  ::close(Fd);

  // The daemon survives; a fresh connection is served.
  int Fd2 = TS.connect();
  ASSERT_GE(Fd2, 0);
  EXPECT_EQ(status(sendRecv(Fd2, "{\"cmd\":\"ping\"}")), "ok");
  ::close(Fd2);
}

TEST(ServerTest, MidFrameDisconnectDegradesOnlyThatConnection) {
  TestServer TS{ServerConfig{}};
  int A = TS.connect();
  ASSERT_GE(A, 0);
  // Half a header, then gone: the server sees Truncated and reclaims the
  // connection without answering (there is nothing to answer).
  ASSERT_EQ(ioWriteFull(A, "GCAF\x40", 5), IoStatus::Ok);
  ::close(A);

  int B = TS.connect();
  ASSERT_GE(B, 0);
  CompileRequest Req = requestFor(smallSource(), 3);
  EXPECT_EQ(status(sendRecv(B, buildCompileRequestJson(Req))), "ok");
  ::close(B);
}

TEST(ServerTest, OverloadedWhenAdmissionQueueFull) {
  ServerConfig Config;
  Config.Jobs = 1;
  Config.QueueLimit = 0; // Zero admitted-but-unstarted slots: always shed.
  TestServer TS{Config};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  CompileRequest Req = requestFor(smallSource(), 5);
  JsonValue Resp = sendRecv(Fd, buildCompileRequestJson(Req));
  EXPECT_EQ(status(Resp), "overloaded");
  EXPECT_EQ(respId(Resp), 5);
  EXPECT_GE(TS.server().counter("server.overloaded"), 1);
  // Shedding is not fatal: control traffic still flows on the same
  // connection.
  EXPECT_EQ(status(sendRecv(Fd, "{\"cmd\":\"ping\"}")), "ok");
  ::close(Fd);
}

TEST(ServerTest, DeadlinePassedBeforeDispatchTimesOut) {
  ServerConfig Config;
  Config.Jobs = 1;
  Config.RequestTimeoutSec = 1e-6;
  TestServer TS{Config};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  // Pipeline two requests: with one worker, the second one's queue wait is
  // at least the first one's compile time, far past the 1 µs deadline.
  ASSERT_EQ(writeFrame(Fd, buildCompileRequestJson(
                               requestFor(slowSource(), 1))),
            FrameStatus::Ok);
  ASSERT_EQ(writeFrame(Fd, buildCompileRequestJson(
                               requestFor(smallSource(), 2))),
            FrameStatus::Ok);
  bool SawTimeoutForSecond = false;
  for (int I = 0; I < 2; ++I) {
    JsonValue Resp = recvJson(Fd);
    if (respId(Resp) == 2) {
      EXPECT_EQ(status(Resp), "timeout");
      SawTimeoutForSecond = status(Resp) == "timeout";
    } else {
      EXPECT_EQ(respId(Resp), 1);
      EXPECT_TRUE(status(Resp) == "ok" || status(Resp) == "timeout");
    }
  }
  EXPECT_TRUE(SawTimeoutForSecond);
  EXPECT_GE(TS.server().counter("server.timeouts"), 1);
  ::close(Fd);
}

TEST(ServerTest, DrainUnderLoadDropsNoInFlightRequest) {
  ServerConfig Config;
  Config.Jobs = 1;
  TestServer TS{Config};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  const int N = 4;
  for (int I = 0; I < N; ++I)
    ASSERT_EQ(writeFrame(Fd, buildCompileRequestJson(
                                 requestFor(slowSource(), I))),
              FrameStatus::Ok);
  // Wait until every request has been read and admitted, so the drain
  // deterministically lands while compiles are queued and executing.
  for (int Spin = 0; Spin < 10000; ++Spin) {
    if (TS.server().counter("server.requests") == N)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(TS.server().counter("server.requests"), N);
  TS.server().requestDrain();
  // A request arriving after the drain is rejected explicitly, not dropped
  // (in-flight work keeps the connection open long enough to read it).
  ASSERT_EQ(writeFrame(Fd, buildCompileRequestJson(
                               requestFor(smallSource(), N))),
            FrameStatus::Ok);
  int Answered = 0, Ok = 0, Draining = 0;
  bool LateRejected = false;
  for (int I = 0; I < N + 1; ++I) {
    JsonValue Resp = recvJson(Fd);
    if (Resp.isNull())
      break;
    ++Answered;
    if (status(Resp) == "ok")
      ++Ok;
    else if (status(Resp) == "draining")
      ++Draining;
    if (respId(Resp) == N)
      LateRejected = status(Resp) == "draining";
  }
  // Every admitted request was answered; nothing vanished.
  EXPECT_EQ(Answered, N + 1);
  EXPECT_EQ(Ok + Draining, N + 1);
  EXPECT_GE(Ok, 1); // At least the one already executing completes.
  EXPECT_TRUE(LateRejected);
  std::string Rest;
  EXPECT_EQ(readFrame(Fd, Rest), FrameStatus::Eof); // Then a clean close.
  ::close(Fd);
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(ServerTest, ServesCorrectlyUnderInjectedIoFaults) {
  CompileRequest Req = requestFor(smallSource(), 1);
  std::string Expected = runCompileRequest(Req, nullptr).Output;

  FaultScope Faults("short-read=40,short-write=40,eagain=25,eintr=25,seed=11");
  TestServer TS{ServerConfig{}};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  for (int I = 0; I < 5; ++I) {
    Req.Id = I;
    JsonValue Resp = sendRecv(Fd, buildCompileRequestJson(Req));
    ASSERT_EQ(status(Resp), "ok") << "request " << I;
    EXPECT_EQ(output(Resp), Expected) << "request " << I;
  }
  ::close(Fd);
  // The retry loops actually ran: faults were injected, none escaped.
  EXPECT_GT(FaultInjector::instance().injected(), 0);
}

TEST(ServerTest, FaultedConnectionIsItsOwnFailureDomain) {
  FaultScope Faults("short-read=60,eagain=30,seed=3");
  TestServer TS{ServerConfig{}};
  int A = TS.connect();
  int B = TS.connect();
  ASSERT_GE(A, 0);
  ASSERT_GE(B, 0);
  // A dies mid-frame under fault pressure; B must still be served and the
  // process-wide behavior (accepting, compiling) must be unaffected.
  ASSERT_EQ(ioWriteFull(A, "GCAF\xff\x00\x00", 7), IoStatus::Ok);
  ::close(A);
  CompileRequest Req = requestFor(smallSource(), 8);
  JsonValue Resp = sendRecv(B, buildCompileRequestJson(Req));
  EXPECT_EQ(status(Resp), "ok");
  ::close(B);
}

TEST(FaultInjectorTest, SpecParsing) {
  FaultInjector &FI = FaultInjector::instance();
  EXPECT_TRUE(FI.configure("short-read=10,short-write=20,eagain=5,seed=42"));
  EXPECT_TRUE(FI.armed());
  FI.reset();
  EXPECT_FALSE(FI.armed());
  EXPECT_FALSE(FI.configure("bogus-knob=10"));
  EXPECT_FALSE(FI.configure("short-read=101"));
  EXPECT_FALSE(FI.configure("short-read"));
  EXPECT_FALSE(FI.armed());
  FI.reset();
}

//===----------------------------------------------------------------------===//
// Admin plane
//===----------------------------------------------------------------------===//

HttpRequest adminGet(const std::string &Target,
                     const std::string &Method = "GET") {
  HttpRequest R;
  R.Method = Method;
  R.Target = Target;
  R.Version = "HTTP/1.1";
  return R;
}

JsonValue parsedJson(const std::string &Text) {
  JsonValue Doc;
  std::string Err;
  EXPECT_TRUE(JsonValue::parse(Text, Doc, Err)) << Err << "\n" << Text;
  return Doc;
}

TEST(AdminPlaneTest, RoutingAndStatusCodes) {
  TestServer TS{ServerConfig{}};
  CompileServer &S = TS.server();
  EXPECT_EQ(S.handleAdmin(adminGet("/healthz")).Status, 200);
  EXPECT_EQ(S.handleAdmin(adminGet("/healthz")).Body, "ok\n");
  EXPECT_EQ(S.handleAdmin(adminGet("/readyz")).Status, 200);
  EXPECT_EQ(S.handleAdmin(adminGet("/metrics")).Status, 200);
  EXPECT_EQ(S.handleAdmin(adminGet("/metrics")).ContentType,
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(S.handleAdmin(adminGet("/statusz")).ContentType,
            "application/json");
  EXPECT_EQ(S.handleAdmin(adminGet("/nope")).Status, 404);
  // Query strings route like the bare path (Prometheus appends them).
  EXPECT_EQ(S.handleAdmin(adminGet("/metrics?x=1")).Status, 200);

  HttpResponse Post = S.handleAdmin(adminGet("/metrics", "POST"));
  EXPECT_EQ(Post.Status, 405);
  bool AllowGet = false;
  for (const auto &[K, V] : Post.ExtraHeaders)
    AllowGet |= K == "Allow" && V == "GET";
  EXPECT_TRUE(AllowGet);
}

TEST(AdminPlaneTest, MetricsBodyMatchesSnapshotExposition) {
  TestServer TS{ServerConfig{}};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  EXPECT_EQ(status(sendRecv(Fd, buildCompileRequestJson(
                                    requestFor(smallSource(), 1)))),
            "ok");
  ::close(Fd);
  // The server reaps the closed connection on its own thread; wait until it
  // has, so both renders see the same quiescent server.
  for (int Spin = 0;
       Spin < 5000 && TS.server().counter("server.connections-active") != 0;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(TS.server().counter("server.connections-active"), 0);
  // The admin endpoint renders through the same MetricsSnapshot as the
  // socket `metrics` command; a quiescent server yields identical bytes
  // modulo the uptime counter, which legitimately ticks between renders.
  auto Stable = [](const std::string &Text) {
    std::string Out;
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t Nl = Text.find('\n', Pos);
      std::string Line = Text.substr(Pos, Nl - Pos);
      Pos = (Nl == std::string::npos) ? Text.size() : Nl + 1;
      if (Line.find("uptime") == std::string::npos)
        Out += Line + "\n";
    }
    return Out;
  };
  std::string FromAdmin = TS.server().handleAdmin(adminGet("/metrics")).Body;
  std::string FromSnapshot = TS.server().metricsSnapshot().prometheus();
  EXPECT_EQ(Stable(FromAdmin), Stable(FromSnapshot));
  EXPECT_NE(FromAdmin.find("# TYPE gca_server_requests counter"),
            std::string::npos);
  EXPECT_NE(FromAdmin.find("# TYPE gca_server_connections_active gauge"),
            std::string::npos);
}

TEST(AdminPlaneTest, TraceIdEchoedInResponse) {
  TestServer TS{ServerConfig{}};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  CompileRequest Req = requestFor(smallSource(), 7);
  Req.TraceId = "trace-abc-123";
  JsonValue Resp = sendRecv(Fd, buildCompileRequestJson(Req));
  EXPECT_EQ(status(Resp), "ok");
  const JsonValue *Echo = Resp.get("trace_id");
  ASSERT_NE(Echo, nullptr);
  EXPECT_EQ(Echo->stringValue(), "trace-abc-123");
  // No trace_id sent, none echoed: trace-unaware clients see the exact
  // pre-admin-plane response shape.
  JsonValue Plain = sendRecv(Fd, buildCompileRequestJson(
                                     requestFor(smallSource(), 8)));
  EXPECT_EQ(Plain.get("trace_id"), nullptr);
  ::close(Fd);
}

TEST(AdminPlaneTest, StatuszShowsInflightAndClientAccounting) {
  ServerConfig Config;
  Config.Jobs = 1;
  TestServer TS{Config};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  // Two slow compiles on one worker: once both are admitted, at least one
  // is still in flight whenever the other executes, so the table below is
  // observed deterministically.
  for (int I = 0; I < 2; ++I) {
    CompileRequest Req = requestFor(slowSource(), I);
    Req.Client = "alice";
    Req.TraceId = "t-" + std::to_string(I);
    ASSERT_EQ(writeFrame(Fd, buildCompileRequestJson(Req)), FrameStatus::Ok);
  }
  bool SawInflight = false, SawExecuting = false;
  for (int Spin = 0; Spin < 10000 && !(SawInflight && SawExecuting); ++Spin) {
    JsonValue Doc = parsedJson(TS.server().statuszJson());
    const JsonValue *Inflight = Doc.get("inflight");
    ASSERT_NE(Inflight, nullptr);
    ASSERT_TRUE(Inflight->isArray());
    for (const JsonValue &Row : Inflight->array()) {
      SawInflight = true;
      const JsonValue *Client = Row.get("client");
      ASSERT_NE(Client, nullptr);
      EXPECT_EQ(Client->stringValue(), "alice");
      EXPECT_NE(Row.get("rid"), nullptr);
      EXPECT_GE(Row.get("age_ms")->numberValue(-1), 0.0);
      SawExecuting |= Row.get("executing")->boolValue();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(SawInflight);
  EXPECT_TRUE(SawExecuting);
  for (int I = 0; I < 2; ++I)
    EXPECT_EQ(status(recvJson(Fd)), "ok");
  // Completed requests leave the in-flight table and land in the
  // per-client accounting, keyed by the request's client field.
  JsonValue Doc = parsedJson(TS.server().statuszJson());
  EXPECT_TRUE(Doc.get("inflight")->array().empty());
  const JsonValue *Alice = Doc.get("clients")->get("alice");
  ASSERT_NE(Alice, nullptr);
  EXPECT_EQ(Alice->get("requests")->intValue(-1), 2);
  EXPECT_EQ(Alice->get("ok")->intValue(-1), 2);
  EXPECT_GT(Alice->get("bytes_in")->intValue(-1), 0);
  EXPECT_GT(Alice->get("bytes_out")->intValue(-1), 0);
  EXPECT_EQ(Doc.get("version")->stringValue(), kGcaCacheVersion);
  ::close(Fd);
}

TEST(AdminPlaneTest, ReadyzTurns503OnDrain) {
  TestServer TS{ServerConfig{}};
  EXPECT_EQ(TS.server().handleAdmin(adminGet("/readyz")).Status, 200);
  TS.server().requestDrain();
  HttpResponse R = TS.server().handleAdmin(adminGet("/readyz"));
  EXPECT_EQ(R.Status, 503);
  EXPECT_EQ(R.Body, "draining\n");
  // Liveness is not readiness: a draining server is still alive.
  EXPECT_EQ(TS.server().handleAdmin(adminGet("/healthz")).Status, 200);
}

TEST(AdminPlaneTest, TracezRecordsCompletedAndSlowRequests) {
  ServerConfig Config;
  Config.SlowMs = 1e-6; // Everything is slow: the pinned table must fill.
  TestServer TS{Config};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  for (int I = 0; I < 3; ++I) {
    CompileRequest Req = requestFor(smallSource(), I);
    Req.TraceId = "tz-" + std::to_string(I);
    EXPECT_EQ(status(sendRecv(Fd, buildCompileRequestJson(Req))), "ok");
  }
  ::close(Fd);
  JsonValue Doc = parsedJson(TS.server().tracezJson());
  const JsonValue *Recent = Doc.get("recent");
  ASSERT_NE(Recent, nullptr);
  ASSERT_EQ(Recent->array().size(), 3u);
  std::set<int64_t> Rids;
  for (const JsonValue &Rec : Recent->array()) {
    Rids.insert(Rec.get("rid")->intValue(-1));
    EXPECT_EQ(Rec.get("status")->stringValue(), "ok");
    EXPECT_TRUE(Rec.get("slow")->boolValue());
    EXPECT_GT(Rec.get("total_ms")->numberValue(-1), 0.0);
    const JsonValue *Spans = Rec.get("spans");
    ASSERT_NE(Spans, nullptr);
    EXPECT_GE(Spans->array().size(), 3u); // queue-wait, compile, render.
  }
  EXPECT_EQ(Rids.size(), 3u) << "rids must be unique";
  EXPECT_GE(Doc.get("slowest")->array().size(), 3u);
  EXPECT_GE(TS.server().counter("server.slow-requests"), 3);
}

TEST(AdminPlaneTest, RequestLogOneWellFormedLinePerRequest) {
  FILE *Log = std::tmpfile();
  ASSERT_NE(Log, nullptr);
  ServerConfig Config;
  Config.LogStream = Log;
  TestServer TS{Config};
  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  CompileRequest Req = requestFor(smallSource(), 42);
  Req.Client = "logger";
  Req.TraceId = "log-1";
  EXPECT_EQ(status(sendRecv(Fd, buildCompileRequestJson(Req))), "ok");
  ::close(Fd);
  // The log line is flushed before the response is written, so it is
  // already on disk once the client has its answer.
  std::rewind(Log);
  char Buf[4096];
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), Log), nullptr);
  JsonValue Line = parsedJson(Buf);
  EXPECT_EQ(Line.get("id")->intValue(-1), 42);
  EXPECT_EQ(Line.get("client")->stringValue(), "logger");
  EXPECT_EQ(Line.get("trace_id")->stringValue(), "log-1");
  EXPECT_EQ(Line.get("status")->stringValue(), "ok");
  EXPECT_GE(Line.get("rid")->intValue(-1), 1);
  EXPECT_GT(Line.get("total_ms")->numberValue(-1), 0.0);
  EXPECT_GT(Line.get("bytes_in")->intValue(-1), 0);
  EXPECT_GT(Line.get("bytes_out")->intValue(-1), 0);
  ASSERT_NE(Line.get("ts_s"), nullptr);
  EXPECT_EQ(std::fgets(Buf, sizeof(Buf), Log), nullptr) << "extra log lines";
  std::fclose(Log);
}

TEST(AdminPlaneTest, CompilesBitwiseIdenticalUnderConcurrentScrapes) {
  CompileRequest Probe = requestFor(smallSource(), 0);
  std::string Expected = runCompileRequest(Probe, nullptr).Output;

  ServerConfig Config;
  Config.AdminSpec = "127.0.0.1:0";
  TestServer TS{Config};
  std::string Err;
  ASSERT_TRUE(TS.server().startAdmin(Err)) << Err;
  std::string Addr = TS.server().adminAddress();
  ASSERT_FALSE(Addr.empty());

  // Scrapers hammer every endpoint over real HTTP for the whole run; the
  // compile responses must not change by a byte.
  std::atomic<bool> Stop{false};
  std::atomic<int> ScrapeFailures{0};
  std::vector<std::thread> Scrapers;
  for (const char *Path : {"/metrics", "/statusz", "/tracez", "/readyz"})
    Scrapers.emplace_back([&, Path] {
      while (!Stop.load(std::memory_order_relaxed)) {
        int Status = 0;
        std::string Body, E;
        if (!httpGet(Addr, Path, Status, Body, E) ||
            (Status != 200 && Status != 503))
          ScrapeFailures++;
      }
    });

  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  for (int I = 0; I < 8; ++I) {
    CompileRequest Req = requestFor(smallSource(), I);
    Req.Name = Probe.Name;
    JsonValue Resp = sendRecv(Fd, buildCompileRequestJson(Req));
    EXPECT_EQ(status(Resp), "ok") << "request " << I;
    EXPECT_EQ(output(Resp), Expected) << "request " << I;
  }
  ::close(Fd);
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Scrapers)
    T.join();
  EXPECT_EQ(ScrapeFailures.load(), 0);
}

TEST(AdminPlaneTest, ScrapesSurviveInjectedShortWrites) {
  ServerConfig Config;
  Config.AdminSpec = "127.0.0.1:0";
  TestServer TS{Config};
  std::string Err;
  ASSERT_TRUE(TS.server().startAdmin(Err)) << Err;

  int Fd = TS.connect();
  ASSERT_GE(Fd, 0);
  EXPECT_EQ(status(sendRecv(Fd, buildCompileRequestJson(
                                    requestFor(smallSource(), 1)))),
            "ok");
  ::close(Fd);

  FaultScope Faults("short-write=40,short-read=40,eagain=25,seed=13");
  std::string First;
  for (int I = 0; I < 4; ++I) {
    int Status = 0;
    std::string Body, E;
    ASSERT_TRUE(httpGet(TS.server().adminAddress(), "/metrics", Status,
                        Body, E))
        << "scrape " << I << ": " << E;
    EXPECT_EQ(Status, 200);
    // The server is quiescent, so successive scrapes differ only in the
    // uptime gauge — strip it and require byte identity under faults.
    std::string Stable;
    size_t Pos = 0;
    while (Pos < Body.size()) {
      size_t Nl = Body.find('\n', Pos);
      std::string Line = Body.substr(Pos, Nl - Pos);
      Pos = (Nl == std::string::npos) ? Body.size() : Nl + 1;
      // connections_active: the compile connection we just closed is
      // reaped asynchronously, so it may still be counted on early scrapes.
      if (Line.find("uptime") == std::string::npos &&
          Line.find("io_faults") == std::string::npos &&
          Line.find("admin_") == std::string::npos &&
          Line.find("connections_active") == std::string::npos)
        Stable += Line + "\n";
    }
    if (I == 0)
      First = Stable;
    else
      EXPECT_EQ(Stable, First) << "scrape " << I;
  }
  EXPECT_GT(FaultInjector::instance().injected(), 0);
}

//===----------------------------------------------------------------------===//
// Bounded protocol fuzz (tier 1; the long campaign is in gca_fuzz_tests)
//===----------------------------------------------------------------------===//

TEST(ServerTest, BoundedProtocolFuzz) {
  ServerConfig Config;
  Config.MaxFramePayload = 64 << 10;
  TestServer TS{Config};
  fuzzgen::Rng R(20260809);
  const std::string Valid =
      encodeFrame(buildCompileRequestJson(requestFor(smallSource(), 1)));

  for (int Round = 0; Round < 60; ++Round) {
    std::string Mutant = Valid;
    int Flips = R.range(1, 8);
    for (int F = 0; F < Flips; ++F)
      Mutant[static_cast<size_t>(R.range(0, static_cast<int>(Mutant.size()) -
                                                1))] =
          static_cast<char>(R.range(0, 255));
    if (R.chance(25))
      Mutant.resize(static_cast<size_t>(
          R.range(0, static_cast<int>(Mutant.size()))));
    int Fd = TS.connect();
    ASSERT_GE(Fd, 0);
    (void)ioWriteFull(Fd, Mutant.data(), Mutant.size());
    // Oracle 1: whatever comes back (possibly nothing) parses as JSON.
    if (readableWithin(Fd, 50)) {
      std::string Wire;
      if (readFrame(Fd, Wire) == FrameStatus::Ok) {
        JsonValue Doc;
        std::string Err;
        EXPECT_TRUE(JsonValue::parse(Wire, Doc, Err))
            << "round " << Round << ": unparseable response: " << Err;
      }
    }
    ::close(Fd);
    // Oracle 2: every 10 rounds, a valid request on a fresh connection is
    // still served correctly — the daemon took no lasting damage.
    if (Round % 10 == 9) {
      int Probe = TS.connect();
      ASSERT_GE(Probe, 0);
      JsonValue Resp =
          sendRecv(Probe, buildCompileRequestJson(requestFor(smallSource(),
                                                             Round)));
      EXPECT_EQ(status(Resp), "ok") << "round " << Round;
      ::close(Probe);
    }
  }
}

} // namespace
