//===- support/Stats.cpp - Named counter registry -------------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include "support/Json.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <cctype>

using namespace gca;

void StatsRegistry::add(const std::string &Name, int64_t Delta) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters[Name] += Delta;
}

int64_t StatsRegistry::get(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

bool StatsRegistry::empty() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters.empty();
}

StatsRegistry::Snapshot StatsRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

StatsRegistry::Snapshot StatsRegistry::diff(const Snapshot &Before) const {
  Snapshot Out;
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &[Name, Value] : Counters) {
    auto It = Before.find(Name);
    int64_t Delta = Value - (It == Before.end() ? 0 : It->second);
    if (Delta != 0)
      Out[Name] = Delta;
  }
  return Out;
}

void StatsRegistry::merge(StatsRegistry &&Other) {
  assert(&Other != this && "merging a registry into itself");
  std::scoped_lock Lock(Mu, Other.Mu);
  // std::map::merge moves the nodes whose names are new here and leaves
  // the others behind.
  Counters.merge(Other.Counters);
  for (const auto &[Name, Value] : Other.Counters)
    Counters[Name] += Value;
  Other.Counters.clear();
}

std::string StatsRegistry::str() const {
  Snapshot Snap = snapshot();
  size_t Width = 0;
  for (const auto &[Name, Value] : Snap)
    Width = std::max(Width, std::to_string(Value).size());
  std::string Out;
  for (const auto &[Name, Value] : Snap)
    Out += strFormat("%*lld %s\n", static_cast<int>(Width + 2),
                     static_cast<long long>(Value), Name.c_str());
  return Out;
}

std::string StatsRegistry::json() const {
  Snapshot Snap = snapshot();
  JsonWriter W;
  W.beginObject();
  for (const auto &[Name, Value] : Snap)
    W.key(Name).value(Value);
  W.endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

// Bucket layout: values in [0,32) get exact buckets 0..31; a value with
// highest set bit b >= 5 lands in one of 16 sub-buckets of [2^b, 2^(b+1)),
// at index 32 + (b-5)*16 + (the 4 bits below the highest bit).
size_t Histogram::bucketOf(int64_t Value) {
  uint64_t V = Value < 0 ? 0 : static_cast<uint64_t>(Value);
  if (V < 32)
    return static_cast<size_t>(V);
  int B = 63;
  while (!(V >> B))
    --B;
  uint64_t Sub = (V >> (B - 4)) & 0xF;
  return 32 + static_cast<size_t>(B - 5) * 16 + static_cast<size_t>(Sub);
}

int64_t Histogram::bucketLowerBound(size_t Bucket) {
  if (Bucket < 32)
    return static_cast<int64_t>(Bucket);
  size_t B = (Bucket - 32) / 16 + 5;
  size_t Sub = (Bucket - 32) % 16;
  return static_cast<int64_t>((16 + Sub) << (B - 4));
}

void Histogram::record(int64_t Value) {
  if (Value < 0)
    Value = 0;
  size_t Idx = bucketOf(Value);
  if (Idx >= Buckets.size())
    Buckets.resize(Idx + 1, 0);
  ++Buckets[Idx];
  if (!Count || Value < Min)
    Min = Value;
  if (!Count || Value > Max)
    Max = Value;
  ++Count;
  Sum += Value;
}

int64_t Histogram::quantile(double Q) const {
  if (!Count)
    return 0;
  Q = std::min(1.0, std::max(0.0, Q));
  int64_t Rank = static_cast<int64_t>(Q * static_cast<double>(Count));
  if (Rank >= Count)
    Rank = Count - 1;
  int64_t Seen = 0;
  for (size_t I = 0; I != Buckets.size(); ++I) {
    Seen += Buckets[I];
    if (Seen > Rank)
      return std::max(std::min(bucketLowerBound(I), Max), Min);
  }
  return Max;
}

void Histogram::merge(const Histogram &Other) {
  if (!Other.Count)
    return;
  if (Other.Buckets.size() > Buckets.size())
    Buckets.resize(Other.Buckets.size(), 0);
  for (size_t I = 0; I != Other.Buckets.size(); ++I)
    Buckets[I] += Other.Buckets[I];
  if (!Count || Other.Min < Min)
    Min = Other.Min;
  if (!Count || Other.Max > Max)
    Max = Other.Max;
  Count += Other.Count;
  Sum += Other.Sum;
}

std::string Histogram::str() const {
  return strFormat("count=%lld min=%lld p50=%lld p95=%lld p99=%lld max=%lld",
                   static_cast<long long>(Count),
                   static_cast<long long>(min()),
                   static_cast<long long>(quantile(0.5)),
                   static_cast<long long>(quantile(0.95)),
                   static_cast<long long>(quantile(0.99)),
                   static_cast<long long>(max()));
}

static void histogramJson(JsonWriter &W, const Histogram &H) {
  W.beginObject();
  W.key("count").value(H.count());
  W.key("min").value(H.min());
  W.key("max").value(H.max());
  W.key("sum").value(H.sum());
  W.key("mean").value(H.mean(), 3);
  W.key("p50").value(H.quantile(0.5));
  W.key("p95").value(H.quantile(0.95));
  W.key("p99").value(H.quantile(0.99));
  W.endObject();
}

std::string Histogram::json() const {
  JsonWriter W;
  histogramJson(W, *this);
  return W.str();
}

//===----------------------------------------------------------------------===//
// MetricsSnapshot
//===----------------------------------------------------------------------===//

std::string MetricsSnapshot::json() const {
  JsonWriter W;
  W.beginObject();
  for (const auto &[Kind, Values] :
       {std::pair{"counters", &Counters}, std::pair{"gauges", &Gauges}}) {
    W.key(Kind).beginObject();
    for (const auto &[Name, Value] : *Values)
      W.key(Name).value(Value);
    W.endObject();
  }
  W.key("histograms").beginObject();
  for (const auto &[Name, H] : Histograms) {
    W.key(Name);
    histogramJson(W, H);
  }
  W.endObject();
  W.endObject();
  return W.str();
}

/// "placement.subset-eliminated" -> "gca_placement_subset_eliminated".
static std::string promName(const std::string &Dotted) {
  std::string Out = "gca_";
  for (char C : Dotted)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '_')
               ? C
               : '_';
  return Out;
}

std::string MetricsSnapshot::prometheus() const {
  std::string Out;
  for (const auto &[Kind, Values] :
       {std::pair{"counter", &Counters}, std::pair{"gauge", &Gauges}})
    for (const auto &[Name, Value] : *Values) {
      std::string P = promName(Name);
      Out += strFormat("# HELP %s gcomm %s %s\n", P.c_str(), Kind,
                       Name.c_str());
      Out += strFormat("# TYPE %s %s\n%s %lld\n", P.c_str(), Kind, P.c_str(),
                       static_cast<long long>(Value));
    }
  for (const auto &[Name, H] : Histograms) {
    std::string P = promName(Name);
    Out += strFormat("# HELP %s gcomm histogram %s\n", P.c_str(),
                     Name.c_str());
    Out += strFormat("# TYPE %s summary\n", P.c_str());
    for (double Q : {0.5, 0.95, 0.99})
      Out += strFormat("%s{quantile=\"%g\"} %lld\n", P.c_str(), Q,
                       static_cast<long long>(H.quantile(Q)));
    Out += strFormat("%s_sum %lld\n", P.c_str(),
                     static_cast<long long>(H.sum()));
    Out += strFormat("%s_count %lld\n", P.c_str(),
                     static_cast<long long>(H.count()));
  }
  return Out;
}
