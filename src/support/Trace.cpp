//===- support/Trace.cpp - Structured tracing collector -------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"
#include "support/StrUtil.h"

#include <chrono>
#include <cstdio>

using namespace gca;

TraceArg::TraceArg(std::string K, int64_t V)
    : Key(std::move(K)), Value(strFormat("%lld", static_cast<long long>(V))),
      IsNumber(true) {}

TraceCollector &TraceCollector::instance() {
  static TraceCollector C;
  return C;
}

static uint64_t steadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t TraceCollector::nowNs() const { return steadyNowNs() - EpochNs; }

void TraceCollector::enable() {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto &L : Lanes) {
    L->Events.clear();
    L->NextSeq = 0;
  }
  EpochNs = steadyNowNs();
  Enabled.store(true, std::memory_order_relaxed);
}

void TraceCollector::disable() {
  Enabled.store(false, std::memory_order_relaxed);
}

TraceLane &TraceCollector::myLane() {
  // One lane per (thread, process): lanes are never deallocated, so the
  // cached pointer stays valid for the thread's whole life and appends after
  // the first event take no lock.
  static thread_local TraceLane *Mine = nullptr;
  if (!Mine) {
    std::lock_guard<std::mutex> Lock(Mu);
    Lanes.push_back(std::make_unique<TraceLane>());
    Mine = Lanes.back().get();
    Mine->Tid = static_cast<uint32_t>(Lanes.size() - 1);
  }
  return *Mine;
}

void TraceCollector::setThreadName(const std::string &Name) {
  if (!enabled())
    return;
  myLane().ThreadName = Name;
}

void TraceCollector::beginSpan(const std::string &Name, const char *Category,
                               std::vector<TraceArg> Args) {
  if (!enabled())
    return;
  TraceLane &L = myLane();
  L.Events.push_back(
      {Name, Category, 'B', nowNs(), 0, L.NextSeq++, std::move(Args)});
}

void TraceCollector::endSpan() {
  if (!enabled())
    return;
  TraceLane &L = myLane();
  L.Events.push_back({"", "", 'E', nowNs(), 0, L.NextSeq++, {}});
}

void TraceCollector::completeSpan(const std::string &Name,
                                  const char *Category, uint64_t StartNs,
                                  uint64_t DurNs, std::vector<TraceArg> Args) {
  if (!enabled())
    return;
  TraceLane &L = myLane();
  L.Events.push_back(
      {Name, Category, 'X', StartNs, DurNs, L.NextSeq++, std::move(Args)});
}

void TraceCollector::instant(const std::string &Name, const char *Category,
                             std::vector<TraceArg> Args) {
  if (!enabled())
    return;
  TraceLane &L = myLane();
  L.Events.push_back(
      {Name, Category, 'i', nowNs(), 0, L.NextSeq++, std::move(Args)});
}

void TraceCollector::counter(const std::string &Name, const char *Category,
                             int64_t Value) {
  if (!enabled())
    return;
  TraceLane &L = myLane();
  TraceEvent E{Name, Category, 'C', nowNs(), 0, L.NextSeq++, {}};
  E.Args.emplace_back("value", Value);
  L.Events.push_back(std::move(E));
}

static void writeEventJson(JsonWriter &W, const TraceEvent &E, uint32_t Tid,
                           bool RedactTimes) {
  W.beginObject();
  W.key("ph").value(std::string(1, E.Phase));
  if (!E.Name.empty() || E.Phase != 'E')
    W.key("name").value(E.Name);
  if (E.Category[0])
    W.key("cat").value(E.Category);
  W.key("pid").value(int64_t(1));
  W.key("tid").value(static_cast<int64_t>(Tid));
  // Chrome "ts"/"dur" are microseconds; three decimals keep ns resolution.
  W.key("ts").value(RedactTimes ? 0.0 : static_cast<double>(E.TsNs) / 1000.0,
                    3);
  if (E.Phase == 'X')
    W.key("dur").value(
        RedactTimes ? 0.0 : static_cast<double>(E.DurNs) / 1000.0, 3);
  if (E.Phase == 'i')
    W.key("s").value("t"); // Instant scope: thread.
  if (!E.Args.empty()) {
    W.key("args").beginObject();
    for (const TraceArg &A : E.Args) {
      W.key(A.Key);
      if (A.IsNumber)
        W.raw(A.Value);
      else
        W.value(A.Value);
    }
    W.endObject();
  }
  W.endObject();
}

std::string
TraceCollector::exportChromeJson(const ExportOptions &Opts) const {
  std::lock_guard<std::mutex> Lock(Mu);
  JsonWriter W;
  W.beginObject().key("traceEvents").beginArray();
  // One thread_name metadata record per lane, then the events sorted by
  // (lane, sequence) — lanes keep registration order, events emission order,
  // so the document structure is deterministic for deterministic workloads.
  for (const auto &L : Lanes) {
    if (L->ThreadName.empty())
      continue;
    W.beginObject()
        .key("ph")
        .value("M")
        .key("name")
        .value("thread_name")
        .key("pid")
        .value(int64_t(1))
        .key("tid")
        .value(static_cast<int64_t>(L->Tid))
        .key("args")
        .beginObject()
        .key("name")
        .value(L->ThreadName)
        .endObject()
        .endObject();
  }
  for (const auto &L : Lanes)
    for (const TraceEvent &E : L->Events)
      writeEventJson(W, E, L->Tid, Opts.RedactTimes);
  W.endArray().key("displayTimeUnit").value("ms").endObject();
  return W.str();
}

bool TraceCollector::writeChromeJson(const std::string &Path,
                                     const ExportOptions &Opts) const {
  std::string Json = exportChromeJson(Opts);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = Written == Json.size() && std::fclose(F) == 0;
  if (Written != Json.size())
    std::fclose(F);
  return Ok;
}

size_t TraceCollector::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const auto &L : Lanes)
    N += L->Events.size();
  return N;
}

size_t TraceCollector::laneCountWithPrefix(const std::string &Prefix) const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const auto &L : Lanes)
    N += L->ThreadName.rfind(Prefix, 0) == 0;
  return N;
}
