//===- support/Trace.h - Structured tracing collector -----------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide structured trace collector for the compiler and the batch
/// driver: span (begin/end and complete), instant, and counter events land in
/// lock-free per-thread buffers and export as Chrome trace-event JSON,
/// loadable in Perfetto or chrome://tracing.
///
/// Design rules:
///
///  - **Disabled is free.** Every emission helper starts with a single
///    relaxed atomic load (`enabled()`); when tracing is off nothing else
///    runs — no allocation, no locking, no clock reads. Hot paths may emit
///    unconditionally.
///
///  - **Emission is lock-free.** Each thread owns one TraceLane; only the
///    owning thread ever appends to it, so appends take no lock. The process
///    mutex is touched once per thread (lane registration) and by the
///    control plane (enable/disable/export).
///
///  - **Export needs quiescence.** exportChromeJson()/snapshot() and
///    enable()/disable() must run while no other thread is emitting —
///    in practice after ThreadPool workers have been joined. Lanes are never
///    deallocated, so a thread's cached lane pointer stays valid for the
///    whole process lifetime.
///
///  - **Structure is deterministic.** Events carry a per-lane sequence
///    number and export sorted by (lane, sequence); argument lists keep
///    emission order. Two runs that execute the same work on the same lanes
///    produce byte-identical traces once timestamps are redacted
///    (ExportOptions::RedactTimes), which is what the golden tests assert.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_TRACE_H
#define GCA_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gca {

/// One key/value argument of a trace event. String values are escaped at
/// export; numeric values render bare.
struct TraceArg {
  std::string Key;
  std::string Value;
  bool IsNumber = false;

  TraceArg(std::string K, std::string V)
      : Key(std::move(K)), Value(std::move(V)) {}
  TraceArg(std::string K, const char *V) : Key(std::move(K)), Value(V) {}
  TraceArg(std::string K, int64_t V);
  TraceArg(std::string K, int V) : TraceArg(std::move(K), int64_t(V)) {}
};

/// One event in the Chrome trace-event model. Phase 'B'/'E' bound a span on
/// the emitting thread's lane, 'X' is a complete span with an explicit
/// duration, 'i' an instant, 'C' a counter sample.
struct TraceEvent {
  std::string Name;
  const char *Category = "";
  char Phase = 'i';
  uint64_t TsNs = 0;  ///< Nanoseconds since the collector's enable() epoch.
  uint64_t DurNs = 0; ///< 'X' events only.
  uint64_t Seq = 0;   ///< Per-lane emission index (deterministic ordering).
  std::vector<TraceArg> Args;
};

/// The per-thread event buffer. Only the owning thread appends; the
/// collector reads it at export time (quiescent).
struct TraceLane {
  uint32_t Tid = 0;       ///< Dense lane id, in registration order.
  std::string ThreadName; ///< From setThreadName(); empty = unnamed.
  std::vector<TraceEvent> Events;
  uint64_t NextSeq = 0;
};

/// Controls for TraceCollector::exportChromeJson().
struct TraceExportOptions {
  /// Render every ts/dur as 0 so structurally-identical runs export
  /// byte-identical documents (golden tests).
  bool RedactTimes = false;
};

class TraceCollector {
public:
  /// The process-wide collector every layer emits into.
  static TraceCollector &instance();

  /// Starts a new trace: clears all lanes' events, resets the timestamp
  /// epoch, and turns the fast-path flag on. Quiescent-only.
  void enable();

  /// Turns emission off. Already-collected events stay exportable.
  /// Quiescent-only.
  void disable();

  /// The fast-path check: one relaxed atomic load. All emission helpers
  /// no-op when false.
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Nanoseconds since the enable() epoch.
  uint64_t nowNs() const;

  /// Names the calling thread's lane (Chrome thread_name metadata).
  /// Registers the lane even before any event, so worker lanes exist in the
  /// export whether or not work landed on them.
  void setThreadName(const std::string &Name);

  /// Opens a span on the calling thread's lane; pair with endSpan().
  void beginSpan(const std::string &Name, const char *Category,
                 std::vector<TraceArg> Args = {});
  /// Closes the innermost open span of the calling thread.
  void endSpan();

  /// A span with explicit bounds (e.g. measured queue-wait intervals).
  void completeSpan(const std::string &Name, const char *Category,
                    uint64_t StartNs, uint64_t DurNs,
                    std::vector<TraceArg> Args = {});

  /// A point event on the calling thread's lane.
  void instant(const std::string &Name, const char *Category,
               std::vector<TraceArg> Args = {});

  /// A counter sample (renders as a value track in the viewer).
  void counter(const std::string &Name, const char *Category, int64_t Value);

  using ExportOptions = TraceExportOptions;

  /// The whole trace as a Chrome trace-event JSON document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"} with one thread_name
  /// metadata record per lane followed by the events sorted by
  /// (lane, sequence). Quiescent-only.
  std::string exportChromeJson(const ExportOptions &Opts = ExportOptions()) const;

  /// exportChromeJson() to \p Path; false on I/O failure. Quiescent-only.
  bool writeChromeJson(const std::string &Path,
                       const ExportOptions &Opts = ExportOptions()) const;

  /// Total events across all lanes. Quiescent-only (tests).
  size_t eventCount() const;

  /// Lanes whose name starts with \p Prefix. Quiescent-only (tests).
  size_t laneCountWithPrefix(const std::string &Prefix) const;

private:
  TraceCollector() = default;

  /// The calling thread's lane, registering it on first use.
  TraceLane &myLane();

  std::atomic<bool> Enabled{false};
  uint64_t EpochNs = 0; ///< steady_clock ns at enable().

  mutable std::mutex Mu; ///< Guards Lanes registration only.
  std::vector<std::unique_ptr<TraceLane>> Lanes;
};

/// RAII span against the process-wide collector; no-op when tracing is
/// disabled at construction.
class TraceSpan {
public:
  TraceSpan(const std::string &Name, const char *Category,
            std::vector<TraceArg> Args = {}) {
    TraceCollector &C = TraceCollector::instance();
    if (C.enabled()) {
      Open = true;
      C.beginSpan(Name, Category, std::move(Args));
    }
  }
  ~TraceSpan() {
    if (Open)
      TraceCollector::instance().endSpan();
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  bool Open = false;
};

} // namespace gca

#endif // GCA_SUPPORT_TRACE_H
