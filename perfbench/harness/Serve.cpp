//===- perfbench/harness/Serve.cpp - The compile daemon and serve-edit ----===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// serve-edit: an open loop of seeded edits against `gca-compile --serve
// --cache`, then a closed loop that keeps the daemon saturated. The wire
// client is the library's own: buildCompileRequestJson, connectUnixSocket
// and the GCAF frame functions.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"
#include "support/StrUtil.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <functional>
#include <limits>
#include <map>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace gca;

namespace pb {

namespace {

/// Connections of the generator; each has a sender and a receiver thread,
/// so the open loop uses four threads in total.
constexpr int kConns = 2;
/// Requests each connection keeps outstanding in the saturation loop.
constexpr int kWindow = 4;
/// Responses compared byte for byte with an uncached local compile.
constexpr int kOracleSamples = 16;
/// Files whose plans the quality metrics cover.
constexpr size_t kQualityFiles = 32;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// The daemon's four workers keep every core busy, so serve-edit runs four
/// speed probes at once, one thread each, and scales by all of them.
constexpr size_t kProbeThreads = 4;

/// The scale of several probes together: kProbeRefMs over the mean of
/// their kernel times, from the scale of each.
double combinedScale(const std::vector<double> &Scales) {
  double Inverse = 0;
  for (double S : Scales)
    Inverse += 1 / S;
  return static_cast<double>(Scales.size()) / Inverse;
}

/// Samples every probe \p Reps times, all at once; returns the combined
/// scale of these runs.
double sampleAllCores(std::vector<SpeedProbe> &Probes, int Reps) {
  std::vector<double> Scales(Probes.size());
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != Probes.size(); ++T)
    Threads.emplace_back([&, T] { Scales[T] = Probes[T].sample(Reps); });
  for (std::thread &T : Threads)
    T.join();
  return combinedScale(Scales);
}

/// Runs Fn(0..N-1) on up to four threads.
void parallelFor(size_t N, const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Fn(I);
    });
  for (std::thread &T : Threads)
    T.join();
}

int connectWithTimeout(const Daemon &D, std::string &Err) {
  const int Fd = connectUnixSocket(D.socket(), Err);
  if (Fd >= 0) {
    // A daemon that stops answering fails the run instead of hanging it.
    timeval Tv{60, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }
  return Fd;
}

/// What the generator saw of one request.
struct Outcome {
  Clock::time_point Due, Sent, Done;
  bool Got = false;
  std::string Status;
  size_t Digest = 0;
  std::string Output; ///< Kept only for the oracle samples.
};

bool parseResponse(const std::string &Payload, Response &Out) {
  JsonValue V;
  std::string Err;
  if (!JsonValue::parse(Payload, V, Err))
    return false;
  const JsonValue *Id = V.get("id"), *Status = V.get("status");
  if (!Id || !Status || !Status->isString())
    return false;
  Out.Id = Id->intValue(-1);
  Out.Status = Status->stringValue();
  if (const JsonValue *O = V.get("output"); O && O->isString())
    Out.Output = O->stringValue();
  if (const JsonValue *W = V.get("wall_s"))
    Out.WallSec = W->numberValue();
  Out.Bytes = Payload.size();
  return true;
}

bool exchange(int Fd, const std::string &Payload, Response &Out) {
  std::string Answer;
  return writeFrame(Fd, Payload) == FrameStatus::Ok &&
         readFrame(Fd, Answer) == FrameStatus::Ok &&
         parseResponse(Answer, Out);
}

} // namespace

bool Daemon::start(const Options &O, const std::string &Tag,
                   const std::string &LogPath, std::string &Err) {
  stop();
  Sock = O.OutDir + "/" + Tag + ".sock";
  ::unlink(Sock.c_str());
  std::vector<std::string> Args = {O.DaemonPath, "--serve=" + Sock, "--cache"};
  if (!LogPath.empty())
    Args.push_back("--log=" + LogPath);
  const std::string ErrPath = O.OutDir + "/" + Tag + ".stderr";
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  const pid_t P = ::fork();
  if (P < 0) {
    Err = "fork failed";
    return false;
  }
  if (P == 0) {
    // The daemon dies with the harness, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int Fd = ::open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      ::dup2(Fd, 1);
      ::dup2(Fd, 2);
    }
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  Pid = P;
  const Clock::time_point Deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < Deadline) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Err = "daemon exited during start-up; see " + ErrPath;
      return false;
    }
    std::string CErr, Answer;
    const int Fd = connectUnixSocket(Sock, CErr);
    if (Fd >= 0) {
      const bool Pong =
          writeFrame(Fd, "{\"cmd\":\"ping\"}") == FrameStatus::Ok &&
          readFrame(Fd, Answer) == FrameStatus::Ok &&
          Answer.find("\"pong\":true") != std::string::npos;
      ::close(Fd);
      if (Pong)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Err = "daemon did not answer a ping";
  stop();
  return false;
}

void Daemon::stop() {
  if (Pid < 0)
    return;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  for (int I = 0; I != 1000 && Pid >= 0; ++I) {
    if (::waitpid(Pid, &Status, WNOHANG) == Pid)
      Pid = -1;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (Pid >= 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }
  ::unlink(Sock.c_str());
}

bool sendSequential(const Daemon &D, const std::vector<CompileRequest> &Reqs,
                    std::vector<Response> &Out, std::vector<double> &LatencyMs,
                    std::vector<double> &LateMs, std::string &Err) {
  const int Fd = connectWithTimeout(D, Err);
  if (Fd < 0)
    return false;
  Clock::time_point Due = Clock::now();
  for (const CompileRequest &Req : Reqs) {
    const std::string Payload = buildCompileRequestJson(Req);
    const Clock::time_point Sent = Clock::now();
    Response Rsp;
    if (!exchange(Fd, Payload, Rsp)) {
      Err = strFormat("request %lld: exchange failed",
                      static_cast<long long>(Req.Id));
      ::close(Fd);
      return false;
    }
    const Clock::time_point Done = Clock::now();
    LateMs.push_back(msBetween(Due, Sent));
    LatencyMs.push_back(msBetween(Sent, Done));
    Due = Done;
    Out.push_back(std::move(Rsp));
  }
  ::close(Fd);
  return true;
}

void runServeEdit(const Options &O, Report &R) {
  const int NominalCount =
      static_cast<int>(kServeNominalRate * static_cast<double>(O.Seconds));
  const int SaturationCount = kServeSaturationPerSecond * O.Seconds;
  const ServeStream St =
      serveEditStream(O.Seed, NominalCount, SaturationCount);
  std::vector<const ServeRequest *> All;
  for (const ServeRequest &Q : St.Nominal)
    All.push_back(&Q);
  for (const ServeRequest &Q : St.Saturation)
    All.push_back(&Q);
  // Every request keeps the default compile options.
  auto RequestOf = [&](size_t I) {
    CompileRequest Req;
    Req.Id = static_cast<int64_t>(I);
    Req.Name = St.FileNames[static_cast<size_t>(All[I]->File)];
    Req.Source = All[I]->Source;
    return Req;
  };

  if (O.Trace) {
    // Whole-file compiles through every layer, and the first requests of
    // the stream through the request path and the daemon.
    constexpr size_t kLayerOps = 16, kReplay = 96;
    std::vector<CompileOp> Ops, Replay;
    for (size_t I = 0; I != All.size() && Replay.size() != kReplay; ++I) {
      CompileOp Op;
      Op.Name = St.FileNames[static_cast<size_t>(All[I]->File)];
      Op.Source = All[I]->Source;
      if (Ops.size() != kLayerOps) {
        Op.HalfSource = serveFileSource(All[I]->FileSeed, kRoutinesPerFile,
                                        kNestsPerRoutine / 2);
        Ops.push_back(Op);
      }
      Replay.push_back(std::move(Op));
    }
    runLayerSweep(O, Ops, Replay, R);
    return;
  }

  // Set-up, three times: daemon boot, first ping, and one cold compile of
  // each project file. The last daemon serves the measured loops.
  Daemon D;
  std::string Err;
  SetupTimes Setup;
  std::vector<CompileRequest> Cold;
  for (size_t F = 0; F != St.InitialFiles.size(); ++F) {
    CompileRequest &Req = Cold.emplace_back();
    Req.Id = -1 - static_cast<int64_t>(F);
    Req.Name = St.FileNames[F];
    Req.Source = St.InitialFiles[F];
  }
  // The speed probe runs in each gap between phases, with the daemon idle.
  constexpr int kProbeReps = 24;
  std::vector<SpeedProbe> Probes(kProbeThreads);
  for (int I = 0; I != 3; ++I) {
    const double Scale = sampleAllCores(Probes, kProbeReps);
    const Clock::time_point T0 = Clock::now();
    const bool Up = D.start(O, "serve-edit", "", Err);
    R.check(Up, "daemon: " + Err);
    if (!Up)
      return;
    std::vector<Response> Resp;
    std::vector<double> Latency, Late;
    const bool Sent = sendSequential(D, Cold, Resp, Latency, Late, Err);
    Setup.add(secondsSince(T0), Scale);
    R.check(Sent, "cold compiles: " + Err);
    for (const Response &Rsp : Resp)
      R.check(Rsp.Status == "ok", "cold compile: " + Rsp.Status);
  }

  std::vector<Outcome> Out(All.size());
  std::vector<char> Keep(All.size(), 0);
  Rng Pick(O.Seed ^ 0x5eedull);
  for (int I = 0; I != kOracleSamples; ++I)
    Keep[static_cast<size_t>(
        Pick.range(0, static_cast<int>(All.size()) - 1))] = 1;

  int Fds[kConns];
  for (int &Fd : Fds) {
    Fd = connectWithTimeout(D, Err);
    R.check(Fd >= 0, "connect: " + Err);
    if (Fd < 0)
      return;
  }
  // Receives responses on connection C until \p Count have arrived.
  auto Receive = [&](int C, size_t Count) {
    for (size_t K = 0; K != Count; ++K) {
      std::string Payload;
      Response Rsp;
      if (readFrame(Fds[C], Payload) != FrameStatus::Ok ||
          !parseResponse(Payload, Rsp))
        return;
      const Clock::time_point Now = Clock::now();
      const size_t Id = static_cast<size_t>(Rsp.Id);
      if (Rsp.Id < 0 || Id >= Out.size() || Out[Id].Got)
        continue;
      Outcome &Oc = Out[Id];
      Oc.Done = Now;
      Oc.Got = true;
      Oc.Status = Rsp.Status;
      Oc.Digest = std::hash<std::string>()(Rsp.Output);
      if (Keep[Id])
        Oc.Output = std::move(Rsp.Output);
    }
  };
  auto Send = [&](int C, size_t I) {
    const std::string Payload = buildCompileRequestJson(RequestOf(I));
    Out[I].Sent = Clock::now();
    if (writeFrame(Fds[C], Payload) == FrameStatus::Ok)
      return true;
    ::shutdown(Fds[C], SHUT_RDWR); // Unblocks the receiver.
    return false;
  };

  // Open loop: each request is sent when due, whatever is outstanding.
  const size_t N = St.Nominal.size();
  const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(20);
  {
    std::vector<std::thread> Threads;
    for (int C = 0; C != kConns; ++C) {
      Threads.emplace_back([&, C] {
        for (size_t I = static_cast<size_t>(C); I < N; I += kConns) {
          Out[I].Due = Start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       St.Nominal[I].DueSec));
          std::this_thread::sleep_until(Out[I].Due);
          if (!Send(C, I))
            return;
        }
      });
      Threads.emplace_back([&, C] {
        Receive(C, (N + kConns - 1 - static_cast<size_t>(C)) / kConns);
      });
    }
    for (std::thread &T : Threads)
      T.join();
  }
  sampleAllCores(Probes, kProbeReps);

  // Closed loop: each connection keeps kWindow requests outstanding.
  const Clock::time_point SatStart = Clock::now();
  {
    std::vector<std::thread> Threads;
    for (int C = 0; C != kConns; ++C)
      Threads.emplace_back([&, C] {
        std::vector<size_t> Mine;
        for (size_t I = N + static_cast<size_t>(C); I < All.size(); I += kConns)
          Mine.push_back(I);
        size_t Sent = 0;
        for (size_t Done = 0; Done != Mine.size(); ++Done) {
          for (; Sent != Mine.size() && Sent - Done != kWindow; ++Sent)
            if (!Send(C, Mine[Sent]))
              return;
          Receive(C, 1);
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  Clock::time_point SatEnd = SatStart;
  for (size_t I = N; I != All.size(); ++I)
    if (Out[I].Got)
      SatEnd = std::max(SatEnd, Out[I].Done);
  for (int Fd : Fds)
    ::close(Fd);
  const double PeakRss = peakRssMb(D.pid());
  D.stop();
  sampleAllCores(Probes, kProbeReps);
  std::vector<double> Scales;
  for (const SpeedProbe &P : Probes) {
    P.print();
    Scales.push_back(P.scale());
  }
  const double Scale = combinedScale(Scales);
  std::printf("serve-edit timings scaled by %.4f, the %zu probes together\n",
              Scale, Probes.size());
  R.addSetup(Setup);

  Samples Latency, Lateness;
  Samples ByKind[3];
  for (size_t I = 0; I != All.size(); ++I) {
    const bool Ok = Out[I].Got && Out[I].Status == "ok";
    R.check(Ok, strFormat("request %zu: %s", I,
                          Out[I].Got ? Out[I].Status.c_str() : "no response"));
    if (I >= N)
      continue;
    // A failed request counts as infinitely late.
    const double Ms = Ok ? msBetween(Out[I].Due, Out[I].Done)
                         : std::numeric_limits<double>::infinity();
    Latency.add(Ms);
    ByKind[static_cast<int>(All[I]->Kind)].add(Ms);
    Lateness.add(msBetween(Out[I].Due, Out[I].Sent));
  }
  R.addLatency(strFormat("open loop at %.0f req/s", kServeNominalRate),
               Latency, Scale);
  std::printf("by kind p50: resubmit %.3f ms (%zu), edit %.3f ms (%zu), new "
              "file %.3f ms (%zu); generator lateness %s %.3f ms\n",
              ByKind[0].median(), ByKind[0].size(), ByKind[1].median(),
              ByKind[1].size(), ByKind[2].median(), ByKind[2].size(),
              levelName(Lateness.tailLevel()).c_str(),
              Lateness.quantile(Lateness.tailLevel()));
  const double SatSec =
      std::chrono::duration<double>(SatEnd - SatStart).count();
  const double Rate =
      SatSec > 0 ? static_cast<double>(All.size() - N) / SatSec : 0;
  R.addScaled("max_rate_ops", Rate / Scale, Rate, "op/s");
  R.add("peak_rss_mb", PeakRss, "MiB");

  // Output checks, with the daemon stopped. Identical sources must get
  // identical output, and sampled responses must equal an uncached local
  // compile of the same request.
  std::map<size_t, size_t> OutputOf;
  for (size_t I = 0; I != All.size(); ++I) {
    if (!Out[I].Got || Out[I].Status != "ok")
      continue;
    const size_t Src = std::hash<std::string>()(All[I]->Source);
    const auto [It, New] = OutputOf.emplace(Src, Out[I].Digest);
    if (!New)
      R.check(It->second == Out[I].Digest,
              strFormat("request %zu: output differs from an earlier "
                        "response to the same source",
                        I));
  }
  std::vector<size_t> Sampled;
  for (size_t I = 0; I != All.size(); ++I)
    if (Keep[I] && Out[I].Got && Out[I].Status == "ok")
      Sampled.push_back(I);
  // Plan quality over the initial project files and the first new files
  // of the stream: 32 files of 8 routines, enough that the seed moves the
  // geometric mean by only a few percent.
  std::vector<std::pair<std::string, const std::string *>> Files;
  for (size_t F = 0; F != St.InitialFiles.size(); ++F)
    Files.emplace_back(St.FileNames[F], &St.InitialFiles[F]);
  for (size_t I = 0; I != All.size() && Files.size() != kQualityFiles; ++I)
    if (All[I]->Kind == ReqKind::NewFile)
      Files.emplace_back(strFormat("request %zu", I), &All[I]->Source);
  std::vector<char> Match(Sampled.size(), 0), Compiled(Files.size(), 0);
  std::vector<PlanQuality> Quality(Files.size());
  const CompileOptions Defaults;
  parallelFor(Sampled.size() + Files.size(), [&](size_t T) {
    if (T < Sampled.size()) {
      const size_t I = Sampled[T];
      Match[T] = runCompileRequest(RequestOf(I), nullptr).Output ==
                 Out[I].Output;
      return;
    }
    const size_t F = T - Sampled.size();
    const CompileResult Res = compileSource(*Files[F].second, Defaults);
    Compiled[F] = Res.Ok;
    if (Res.Ok)
      Quality[F] = planQuality(Res, Defaults);
  });
  for (size_t T = 0; T != Sampled.size(); ++T)
    R.check(Match[T], strFormat("request %zu: response differs from an "
                                "uncached local compile",
                                Sampled[T]));
  int Groups = 0;
  std::vector<double> CommMs;
  for (size_t F = 0; F != Files.size(); ++F) {
    R.check(Compiled[F], Files[F].first + ": local compile failed");
    checkPlans(R, Files[F].first, Quality[F]);
    Groups += Quality[F].Groups;
    CommMs.push_back(Quality[F].CommMs);
  }
  R.add("static_messages", Groups, "count");
  R.add("modeled_comm", geomean(CommMs), "sim-ms");
}

} // namespace pb
