//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size thread pool for the batch compilation driver and the
/// compile server: tasks are closures over independent compilation sessions,
/// so the pool needs no futures or result plumbing — callers enqueue work
/// with async() and rendezvous with wait(). forEach() lends the pool's idle
/// workers to one caller's loop, which is how a session compiles its
/// routines concurrently. Determinism is the caller's job (sessions share
/// no mutable state; outputs are ordered by input, not completion).
///
/// When the process-wide TraceCollector is enabled, every worker registers a
/// named lane ("<prefix>-<index>") at startup, each dispatched task gets a
/// "task" span on its worker's lane, and the dequeue-minus-enqueue interval
/// is recorded as a "task-wait" complete span — queue pressure and run time
/// are separately visible in the exported timeline.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_SUPPORT_THREADPOOL_H
#define GCA_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gca {

class ThreadPool {
public:
  /// Spawns \p NumThreads workers; 0 means std::thread::hardware_concurrency
  /// (at least 1). \p LanePrefix names the workers' trace lanes.
  explicit ThreadPool(unsigned NumThreads = 0,
                      std::string LanePrefix = "worker");

  /// Waits for all queued work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task; it runs on some worker in FIFO dispatch order.
  void async(std::function<void()> Task);

  /// Blocks until every task enqueued so far has finished.
  void wait();

  /// Runs \p Fn(0) .. \p Fn(N-1), each exactly once, and returns when all
  /// have finished. The calling thread claims indices itself; each worker
  /// idle at the call (Workers - NumActive - Queue.size(), so a saturated
  /// pool queues nothing extra) gets one helper task that claims indices
  /// too. The caller waits only for indices a worker has already started,
  /// never for a queued helper, so forEach completes on a 1-worker pool and
  /// from inside a task. A helper that starts after the last index was
  /// claimed returns at once.
  void forEach(size_t N, const std::function<void(size_t)> &Fn);

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

private:
  struct QueuedTask {
    std::function<void()> Fn;
    /// TraceCollector::nowNs() at enqueue when tracing was on; UINT64_MAX
    /// otherwise (so a task enqueued before enable() reports no wait span).
    uint64_t EnqueueNs;
  };

  void workerLoop(unsigned Index);

  std::string LanePrefix;
  std::vector<std::thread> Workers;
  std::deque<QueuedTask> Queue;
  std::mutex Mu;
  std::condition_variable WorkCV; ///< Signals workers: work or shutdown.
  std::condition_variable IdleCV; ///< Signals wait(): queue drained and idle.
  unsigned NumActive = 0;
  bool Shutdown = false;
};

} // namespace gca

#endif // GCA_SUPPORT_THREADPOOL_H
