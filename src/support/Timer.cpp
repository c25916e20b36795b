//===- support/Timer.cpp - Scoped timers and time reports -----------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/Timer.h"

#include "support/Json.h"
#include "support/StrUtil.h"
#include "support/Trace.h"

#include <cassert>
#include <chrono>
#include <ctime>

using namespace gca;

static double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static double cpuNow() {
#ifdef CLOCK_THREAD_CPUTIME_ID
  timespec TS;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS) == 0)
    return static_cast<double>(TS.tv_sec) + 1e-9 * TS.tv_nsec;
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

const TimeTrace::Node *TimeTrace::Node::child(const std::string &Name) const {
  for (const auto &C : Children)
    if (C->Name == Name)
      return C.get();
  return nullptr;
}

RegionTimer::RegionTimer(const std::string &Name)
    : WallStart(wallNow()), CpuStart(cpuNow()) {
  // Every timed region doubles as a trace span: the pipeline's pass and
  // per-routine regions feed the trace for free.
  TraceCollector &C = TraceCollector::instance();
  if (C.enabled())
    C.beginSpan(Name, "region");
}

TimeRecord RegionTimer::stop() {
  TraceCollector &C = TraceCollector::instance();
  if (C.enabled())
    C.endSpan();
  TimeRecord T;
  T.WallSec = wallNow() - WallStart;
  T.CpuSec = cpuNow() - CpuStart;
  T.Invocations = 1;
  return T;
}

TimeTrace::Node &TimeTrace::child(const std::string &Name) {
  Node *Parent = Stack.empty() ? &Root : Stack.back().N;
  for (auto &C : Parent->Children)
    if (C->Name == Name)
      return *C;
  Parent->Children.push_back(std::make_unique<Node>());
  Parent->Children.back()->Name = Name;
  return *Parent->Children.back();
}

void TimeTrace::enter(const std::string &Name) {
  Node &N = child(Name);
  Stack.push_back({&N, RegionTimer(Name)});
}

TimeRecord TimeTrace::exit() {
  assert(!Stack.empty() && "exit() without matching enter()");
  Open O = Stack.back();
  Stack.pop_back();
  TimeRecord Delta = O.Timer.stop();
  Delta.CpuSec += O.OtherThreadCpu;
  O.N->Time += Delta;
  return Delta;
}

void TimeTrace::add(const std::string &Name, const TimeRecord &T,
                    bool OtherThread) {
  child(Name).Time += T;
  if (OtherThread)
    for (Open &O : Stack)
      O.OtherThreadCpu += T.CpuSec;
}

TimeRecord TimeTrace::total() const {
  TimeRecord T;
  for (const auto &C : Root.Children)
    T += C->Time;
  return T;
}

static void reportNode(const TimeTrace::Node &N, int Depth,
                       std::string &Out) {
  Out += strFormat("%9.4fs %9.4fs  %*s%s\n", N.Time.WallSec, N.Time.CpuSec,
                   Depth * 2, "", N.Name.c_str());
  for (const auto &C : N.Children)
    reportNode(*C, Depth + 1, Out);
}

std::string TimeTrace::report() const {
  std::string Out = "     wall       cpu  region\n";
  for (const auto &C : Root.Children)
    reportNode(*C, 0, Out);
  TimeRecord T = total();
  Out += strFormat("%9.4fs %9.4fs  total\n", T.WallSec, T.CpuSec);
  return Out;
}

static void jsonNode(const TimeTrace::Node &N, JsonWriter &W) {
  W.beginObject();
  W.key("name").value(N.Name);
  W.key("wall_s").value(N.Time.WallSec, 6);
  W.key("cpu_s").value(N.Time.CpuSec, 6);
  W.key("invocations").value(N.Time.Invocations);
  W.key("children").beginArray();
  for (const auto &C : N.Children)
    jsonNode(*C, W);
  W.endArray();
  W.endObject();
}

std::string TimeTrace::json() const {
  JsonWriter W;
  W.beginArray();
  for (const auto &C : Root.Children)
    jsonNode(*C, W);
  W.endArray();
  return W.str();
}
