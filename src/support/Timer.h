//===- support/Timer.h - Scoped timers and time reports ---------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall/CPU timing for the pass pipeline. A TimeTrace owns a tree of named
/// timing nodes; enter()/exit() (or the RAII ScopedTimer) push and pop
/// nodes, so nested regions — a pass timing its per-routine work — show up
/// as children in the hierarchical report, LLVM `-time-passes` style. A
/// trace belongs to one compilation session and is not thread-safe; each
/// concurrent compilation owns its own trace. A region that runs on another
/// thread (a routine a pool worker compiles for the session) is timed there
/// by a RegionTimer and recorded afterwards with add().
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_TIMER_H
#define GCA_SUPPORT_TIMER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gca {

/// Accumulated time for one region: seconds of wall clock, seconds of
/// thread CPU time, and how many times the region was entered.
struct TimeRecord {
  double WallSec = 0;
  double CpuSec = 0;
  int64_t Invocations = 0;

  TimeRecord &operator+=(const TimeRecord &O) {
    WallSec += O.WallSec;
    CpuSec += O.CpuSec;
    Invocations += O.Invocations;
    return *this;
  }
};

/// A stopwatch for one region on the calling thread: wall clock and that
/// thread's CPU time, plus the region's "region" trace span on the thread's
/// lane. TimeTrace uses one per open region.
class RegionTimer {
public:
  /// Reads both clocks and opens the trace span.
  explicit RegionTimer(const std::string &Name);
  /// Closes the trace span. \returns the time since construction, one
  /// invocation. Call once, on the constructing thread.
  TimeRecord stop();

private:
  double WallStart;
  double CpuStart;
};

class TimeTrace {
public:
  struct Node {
    std::string Name;
    TimeRecord Time;
    std::vector<std::unique_ptr<Node>> Children;

    /// The child named \p Name, or null.
    const Node *child(const std::string &Name) const;
  };

  TimeTrace() { Root.Name = "total"; }
  TimeTrace(const TimeTrace &) = delete;
  TimeTrace &operator=(const TimeTrace &) = delete;

  /// Opens (or re-opens) the child region \p Name of the current region and
  /// makes it current.
  void enter(const std::string &Name);

  /// Closes the current region, accumulates its elapsed wall/CPU time, and
  /// returns to its parent. \returns the time added by this enter/exit pair.
  TimeRecord exit();

  /// Adds \p T to the child region \p Name of the current region (opening
  /// it if new) without entering it: the record of a region a RegionTimer
  /// timed. When \p OtherThread, that CPU time was spent off this thread,
  /// so every region open now also adds it when it closes.
  void add(const std::string &Name, const TimeRecord &T, bool OtherThread);

  /// The region tree (children of the synthetic "total" root are the
  /// top-level regions). Totals are meaningful only when every enter() has
  /// been exited.
  const Node &root() const { return Root; }

  /// Sum of the top-level regions' records.
  TimeRecord total() const;

  /// Indented hierarchical report: "  wall  cpu  name" per region, children
  /// indented beneath their parent, ordered by first entry.
  std::string report() const;

  /// The tree as JSON: {"name":..,"wall_s":..,"cpu_s":..,"invocations":..,
  /// "children":[...]} for each region, rooted at the top-level list.
  std::string json() const;

private:
  struct Open {
    Node *N;
    RegionTimer Timer;
    /// CPU seconds that add() recorded from other threads while open.
    double OtherThreadCpu = 0;
  };

  /// The child \p Name of the current region, created when absent.
  Node &child(const std::string &Name);

  Node Root;
  std::vector<Open> Stack;
};

/// RAII wrapper for one enter()/exit() pair.
class ScopedTimer {
public:
  ScopedTimer(TimeTrace &Trace, const std::string &Name) : Trace(Trace) {
    Trace.enter(Name);
  }
  ~ScopedTimer() { Trace.exit(); }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  TimeTrace &Trace;
};

} // namespace gca

#endif // GCA_SUPPORT_TIMER_H
