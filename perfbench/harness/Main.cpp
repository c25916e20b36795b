//===- perfbench/harness/Main.cpp - Benchmark command line ----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --daemon PATH/gca-compile --out DIR [--commit SHA]
//   perfbench --dump-inputs --workload NAME --seed N --seconds S
//
// Prints a stamp of the host and build, one line per measurement, and as
// the last line of standard output the result document. --dump-inputs
// prints a digest of every generated input instead (for the benchmark's
// own tests).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/StrUtil.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

using namespace gca;
using namespace pb;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "compile-large|paper-fig10|serve-edit --seed N --seconds S "
               "--trace 0|1 --daemon GCA_COMPILE --out DIR [--commit SHA] "
               "[--dump-inputs]\n",
               Msg);
  return 2;
}

/// nproc, CPU model, load average, build type, compiler and commit.
void printStamp(const std::string &Commit) {
  std::string Cpu = "unknown", Load = "unknown";
  std::ifstream CpuInfo("/proc/cpuinfo");
  for (std::string L; std::getline(CpuInfo, L);)
    if (L.rfind("model name", 0) == 0) {
      Cpu = L.substr(L.find(':') + 2);
      break;
    }
  std::ifstream LoadAvg("/proc/loadavg");
  std::getline(LoadAvg, Load);
  const unsigned Cores = std::thread::hardware_concurrency();
  std::printf("host: nproc %u, cpu %s, loadavg %s\n", Cores, Cpu.c_str(),
              Load.c_str());
  std::printf("build: %s, compiler %s, commit %s\n", PERFBENCH_BUILD_TYPE,
              __VERSION__, Commit.c_str());
  if (Cores < 2)
    std::printf("WARNING: fewer than 2 cores; parallel scaling is hidden and "
                "these results are not comparable with multi-core ones\n");
}

void dumpInputs(const Options &O) {
  auto Line = [](const std::string &Name, const std::string &Text) {
    std::printf("%s %zu %016zx\n", Name.c_str(), Text.size(),
                std::hash<std::string>()(Text));
  };
  if (O.Workload == "compile-large") {
    for (int I = 0; I != O.Seconds; ++I) {
      const CompileOp Op = compileLargeOp(O.Seed, I);
      Line(Op.Name, Op.Source);
    }
  } else if (O.Workload == "paper-fig10") {
    for (const Fig10Point &P : fig10Points(O.Seed))
      Line(P.Op.Name, P.Op.Source);
  } else {
    const ServeStream St = serveEditStream(
        O.Seed, static_cast<int>(kServeNominalRate * O.Seconds),
        kServeSaturationPerSecond * O.Seconds);
    for (size_t F = 0; F != St.InitialFiles.size(); ++F)
      Line(St.FileNames[F], St.InitialFiles[F]);
    for (const ServeRequest &Q : St.Nominal)
      Line(strFormat("due=%.6f file=%d kind=%d", Q.DueSec, Q.File,
                     static_cast<int>(Q.Kind)),
           Q.Source);
    for (const ServeRequest &Q : St.Saturation)
      Line(strFormat("saturation file=%d kind=%d", Q.File,
                     static_cast<int>(Q.Kind)),
           Q.Source);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Commit = "unknown";
  bool Dump = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (A == "--dump-inputs") {
      Dump = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      O.Seconds = static_cast<int>(std::strtol(V.c_str(), &End, 10));
      if (*End != '\0' || O.Seconds < 1 || O.Seconds > 600)
        return usage("--seconds takes a whole number from 1 to 600");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--daemon") {
      O.DaemonPath = V;
    } else if (A == "--out") {
      O.OutDir = V;
    } else if (A == "--commit") {
      Commit = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (O.Workload != "compile-large" && O.Workload != "paper-fig10" &&
      O.Workload != "serve-edit")
    return usage("unknown --workload");
  if (!HaveSeed)
    return usage("--seed takes a whole number");
  if (Dump) {
    dumpInputs(O);
    return 0;
  }
  if (O.DaemonPath.empty() || O.OutDir.empty())
    return usage("--daemon and --out are required");

  printStamp(Commit);
  std::printf("workload %s, seed %llu, seconds %d, %s\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Seconds,
              O.Trace ? "traced" : "untraced");
  std::fflush(stdout);
  Report R;
  if (O.Workload == "compile-large")
    runCompileLarge(O, R);
  else if (O.Workload == "paper-fig10")
    runPaperFig10(O, R);
  else
    runServeEdit(O, R);
  R.print();
  return 0;
}
