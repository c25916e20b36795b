//===- perfbench/harness/Report.cpp - Samples, spans and results ----------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/AvailDataflow.h"
#include "lower/Schedule.h"
#include "runtime/Machine.h"
#include "runtime/Simulate.h"
#include "support/Json.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory_resource>
#include <numeric>
#include <unordered_map>

using namespace gca;

namespace pb {

Tracer *ActiveTracer = nullptr;

double Samples::quantile(double Q) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  const double Pos = Q * static_cast<double>(S.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, S.size() - 1);
  return S[Lo] + (S[Hi] - S[Lo]) * (Pos - static_cast<double>(Lo));
}

double Samples::sum() const { return std::accumulate(V.begin(), V.end(), 0.0); }

double Samples::trimmedMean(double Cut) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  const size_t Drop = static_cast<size_t>(Cut * static_cast<double>(S.size()));
  const auto First = S.begin() + static_cast<std::ptrdiff_t>(Drop),
             Last = S.end() - static_cast<std::ptrdiff_t>(Drop);
  return std::accumulate(First, Last, 0.0) /
         static_cast<double>(Last - First);
}

double Samples::tailLevel() const {
  // The Q-quantile interpolates at rank Q*(n-1); ten samples lie beyond it
  // when floor(Q*(n-1)) <= n-11, that is Q < (n-10)/(n-1).
  if (V.size() < 12)
    return 0.5;
  const double Last = static_cast<double>(V.size() - 1);
  return std::clamp(std::floor(1000 * (Last - 9) / Last - 1e-9) / 1000, 0.5,
                    0.99);
}

std::string levelName(double Q) {
  std::string S = strFormat("p%.1f", Q * 100);
  if (S.size() > 2 && S.compare(S.size() - 2, 2, ".0") == 0)
    S.resize(S.size() - 2);
  return S;
}

void Report::check(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  if (++Failed <= 8)
    std::printf("FAILED: %s\n", Why.c_str());
}

void Report::addScaled(const std::string &Name, double Value, double Unscaled,
                       const std::string &Unit) {
  add(Name, Value, Unit);
  std::printf("%s: %.6g %s (unscaled %.6g)\n", Name.c_str(), Value,
              Unit.c_str(), Unscaled);
}

void Report::addLatency(const std::string &What, const Samples &S,
                        double Factor) {
  const double Level = S.tailLevel();
  std::printf("%s: %zu samples, tail is %s\n", What.c_str(), S.size(),
              levelName(Level).c_str());
  addScaled("latency_ms.p50", Factor * S.median(), S.median(), "ms");
  addScaled("latency_ms.tail", Factor * S.quantile(Level), S.quantile(Level),
            "ms");
}

void Report::print() const {
  // Written by hand rather than with JsonWriter, which rounds numbers to
  // six decimals: every value keeps all the digits it was measured with.
  // Metric names and units are plain identifiers that need no escaping.
  std::string S = strFormat("{\"correct\":%s,\"attempted\":%lld,\"failed\":"
                            "%lld,\"metrics\":{",
                            Failed == 0 ? "true" : "false",
                            static_cast<long long>(Attempted),
                            static_cast<long long>(Failed));
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    // Failed requests are recorded as infinitely late; keep the document
    // valid JSON.
    S += strFormat("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", I ? "," : "",
                   M.Name.c_str(), std::isfinite(M.Value) ? M.Value : 1e300,
                   M.Unit.c_str());
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
  std::fflush(stdout);
}

namespace {

/// Keys the speed probe's kernel works on.
constexpr size_t kProbeKeys = 1024;

/// The speed probe's kernel: kProbeKeys seeded keys inserted into and looked
/// up in a tree and, spelled as strings, in a hash table, then sorted; the
/// allocation, pointer chasing, hashing and branching a compile spends its
/// time on. Returns a checksum of the work, the same on every call.
uint64_t probeKernel(std::pmr::memory_resource &Mem) {
  Rng R(0x5eed);
  std::pmr::vector<uint64_t> Keys(kProbeKeys, &Mem);
  for (uint64_t &K : Keys)
    K = R.next();
  auto Spell = [&Mem](uint64_t K) {
    char Buf[24];
    std::snprintf(Buf, sizeof Buf, "k%016llx",
                  static_cast<unsigned long long>(K));
    return std::pmr::string(Buf, &Mem);
  };
  std::pmr::map<uint64_t, size_t> Tree(&Mem);
  std::pmr::unordered_map<std::pmr::string, size_t> Names(&Mem);
  for (size_t I = 0; I != Keys.size(); ++I) {
    Tree.emplace(Keys[I], I);
    Names.emplace(Spell(Keys[I]), I);
  }
  uint64_t Sum = 0;
  for (const uint64_t K : Keys)
    Sum = Sum * 31 + Tree.find(K)->second + Names.find(Spell(K))->second;
  std::sort(Keys.begin(), Keys.end());
  return Sum ^ Keys.front();
}

} // namespace

SpeedProbe::SpeedProbe() : Arena(size_t{2} << 20) {}

double SpeedProbe::sample(int Reps) {
  Samples These;
  for (int I = 0; I <= Reps; ++I) {
    // Every run allocates from the same empty buffer, never from the heap
    // the program under test shares.
    std::pmr::monotonic_buffer_resource Mem(Arena.data(), Arena.size(),
                                            std::pmr::null_memory_resource());
    const Clock::time_point T0 = Clock::now();
    Checksum = probeKernel(Mem);
    if (I == 0) // The first run only warms the caches.
      continue;
    const double Ms = msBetween(T0, Clock::now());
    Kernel.add(Ms);
    These.add(Ms);
  }
  return kProbeRefMs / These.trimmedMean(0.1);
}

void SpeedProbe::print() const {
  std::printf("speed probe: kernel p25 %.4f ms, p50 %.4f ms, p75 %.4f ms, "
              "trimmed mean %.4f ms over %zu runs (checksum %016llx); "
              "timings scaled by %.4f to the host speed at which it takes "
              "%.2f ms\n",
              Kernel.quantile(0.25), Kernel.median(), Kernel.quantile(0.75),
              Kernel.trimmedMean(0.1), Kernel.size(),
              static_cast<unsigned long long>(Checksum), scale(),
              kProbeRefMs);
}

int Tracer::begin(const char *Name, int64_t Op) {
  Span S;
  S.Name = Name;
  S.StartMs = msBetween(Epoch, Clock::now());
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Op = Op;
  Spans.push_back(S);
  Stack.push_back(static_cast<int>(Spans.size() - 1));
  return Stack.back();
}

void Tracer::end(int Id) {
  Spans[static_cast<size_t>(Id)].EndMs = msBetween(Epoch, Clock::now());
  if (Stack.empty() || Stack.back() != Id) {
    Misnested = true;
    return;
  }
  Stack.pop_back();
}

std::map<int64_t, double> Tracer::perOp(const std::string &Name) const {
  std::map<int64_t, double> M;
  for (const Span &S : Spans)
    if (Name == S.Name)
      M[S.Op] += S.EndMs - S.StartMs;
  return M;
}

double Tracer::medianPerOp(const std::string &Name) const {
  Samples S;
  for (const auto &[Op, Ms] : perOp(Name))
    S.add(Ms);
  return S.median();
}

double Tracer::totalMs(const std::string &Name) const {
  double T = 0;
  for (const Span &S : Spans)
    if (Name == S.Name)
      T += S.EndMs - S.StartMs;
  return T;
}

double Tracer::selfMs(const std::string &Name) const {
  double T = totalMs(Name);
  for (const Span &S : Spans)
    if (S.Parent >= 0 && Name == Spans[static_cast<size_t>(S.Parent)].Name)
      T -= S.EndMs - S.StartMs;
  return T;
}

double peakRssMb(int Pid) {
  std::ifstream In(Pid ? strFormat("/proc/%d/status", Pid)
                       : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / static_cast<double>(V.size()));
}

void checkPlans(Report &R, const std::string &What, const PlanQuality &Q) {
  R.check(Q.Violations == 0, strFormat("%s: %zu verifyPlan violations",
                                       What.c_str(), Q.Violations));
  if (Q.RedundancyDefects)
    std::printf("known defect: %s: %zu avail-redundancy violations (not "
                "counted as failures)\n",
                What.c_str(), Q.RedundancyDefects);
}

PlanQuality planQuality(const CompileResult &R, const CompileOptions &Opts) {
  PlanQuality Q;
  const MachineProfile M = *MachineProfile::byName(Opts.Machine);
  for (const RoutineResult &RR : R.Routines) {
    Q.Groups += RR.Plan.Stats.totalGroups();
    const ExecProgram Prog = ExecProgram::build(*RR.Ctx, RR.Plan);
    Q.CommMs += 1e3 * simulate(*RR.Ctx, RR.Plan, Prog, M,
                               Opts.Placement.NumProcs, &RR.Lowering)
                          .CommTime;
    for (const VerifyViolation &V :
         verifyPlan(*RR.Ctx, RR.Plan, Opts.Placement).Violations)
      ++(V.Rule == VerifyRule::AvailRedundancy ? Q.RedundancyDefects
                                               : Q.Violations);
  }
  return Q;
}

} // namespace pb
