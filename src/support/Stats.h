//===- support/Stats.h - Named counter registry -----------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A named counter registry in the style of LLVM's `Statistic`, but owned by
/// a compilation session instead of living in globals: every pass and
/// analysis increments counters through a `StatsRegistry *` it is handed, so
/// concurrent compilations never share mutable state. Counter names are
/// dotted `layer.event` strings ("placement.subset-eliminated"); the
/// registry renders them as an aligned text report or JSON, and supports
/// snapshot/diff so the pass manager can attribute increments to the pass
/// that made them.
///
/// Alongside the counters live log-bucketed latency Histograms (p50/p95/p99
/// with ~6% relative error, mergeable across threads' private copies) and
/// the MetricsSnapshot exporter, which renders counters + histograms as one
/// JSON document or Prometheus text exposition — the payload of
/// `gca-compile --metrics` and the bench results files.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_STATS_H
#define GCA_SUPPORT_STATS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gca {

class StatsRegistry {
public:
  /// An ordered name -> value view of the registry at one point in time.
  using Snapshot = std::map<std::string, int64_t>;

  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry &) = delete;
  StatsRegistry &operator=(const StatsRegistry &) = delete;

  /// Adds \p Delta to the counter \p Name (creating it at zero).
  void add(const std::string &Name, int64_t Delta = 1);

  /// The current value of \p Name; zero when never incremented.
  int64_t get(const std::string &Name) const;

  /// True when no counter was ever incremented.
  bool empty() const;

  /// All counters, ordered by name.
  Snapshot snapshot() const;

  /// The counters that changed since \p Before, as (name, increment) —
  /// counters never decrease, so every entry is positive.
  Snapshot diff(const Snapshot &Before) const;

  /// Folds every counter of \p Other into this registry and leaves \p Other
  /// empty. A counter this registry lacks moves over without a copy.
  void merge(StatsRegistry &&Other);

  /// Aligned "  <value> <name>" lines, ordered by name (the format of
  /// LLVM's -stats output).
  std::string str() const;

  /// `{"name":value,...}` ordered by name.
  std::string json() const;

private:
  mutable std::mutex Mu;
  Snapshot Counters;
};

/// A log-bucketed histogram of non-negative integer samples (latencies in
/// nanoseconds, byte counts). Values below 32 get exact buckets; above, each
/// power-of-two range splits into 16 sub-buckets, bounding the relative
/// quantile error at 1/16. Not thread-safe: record into a private instance
/// and merge() (the StatsRegistry discipline).
class Histogram {
public:
  /// Adds one sample; negative values clamp to zero.
  void record(int64_t Value);

  int64_t count() const { return Count; }
  int64_t min() const { return Count ? Min : 0; }
  int64_t max() const { return Count ? Max : 0; }
  int64_t sum() const { return Sum; }
  double mean() const { return Count ? static_cast<double>(Sum) / Count : 0; }

  /// The lower bound of the bucket holding the \p Q quantile (0 < Q <= 1):
  /// quantile(0.5) = p50. Zero when empty.
  int64_t quantile(double Q) const;

  /// Folds \p Other's samples into this histogram.
  void merge(const Histogram &Other);

  /// "count=N min=A p50=B p95=C p99=D max=E" one-liner.
  std::string str() const;

  /// {"count":..,"min":..,"max":..,"sum":..,"mean":..,"p50":..,"p95":..,
  /// "p99":..}.
  std::string json() const;

private:
  static size_t bucketOf(int64_t Value);
  static int64_t bucketLowerBound(size_t Bucket);

  std::vector<int64_t> Buckets; ///< Grown on demand; index = bucketOf().
  int64_t Count = 0;
  int64_t Sum = 0;
  int64_t Min = 0;
  int64_t Max = 0;
};

/// A point-in-time bundle of counters, gauges and named histograms, with
/// the two wire renderings every exporter shares: one JSON object, and
/// Prometheus text exposition (counters as counters, gauges as gauges,
/// histograms as summaries with quantile labels; metric names are prefixed
/// "gca_" and dots map to underscores).
struct MetricsSnapshot {
  /// Values that only ever grow over the exporter's lifetime.
  StatsRegistry::Snapshot Counters;
  /// Current levels that may go down (queue depth, open connections) and
  /// configured sizes.
  StatsRegistry::Snapshot Gauges;
  /// Ordered by insertion; names use the same dotted convention as counters.
  std::vector<std::pair<std::string, Histogram>> Histograms;

  void addHistogram(const std::string &Name, const Histogram &H) {
    Histograms.emplace_back(Name, H);
  }

  /// {"counters":{...},"gauges":{...},"histograms":{"name":{...},...}}.
  std::string json() const;

  /// Prometheus text exposition format (one "# TYPE" comment per metric).
  std::string prometheus() const;
};

} // namespace gca

#endif // GCA_SUPPORT_STATS_H
