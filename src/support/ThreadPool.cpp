//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/StrUtil.h"
#include "support/Trace.h"

#include <algorithm>

using namespace gca;

ThreadPool::ThreadPool(unsigned NumThreads, std::string LanePrefix)
    : LanePrefix(std::move(LanePrefix)) {
  if (NumThreads == 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  Workers.reserve(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Shutdown = true;
  }
  WorkCV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::async(std::function<void()> Task) {
  TraceCollector &C = TraceCollector::instance();
  uint64_t EnqueueNs = C.enabled() ? C.nowNs() : UINT64_MAX;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back({std::move(Task), EnqueueNs});
  }
  WorkCV.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mu);
  IdleCV.wait(Lock, [this] { return Queue.empty() && NumActive == 0; });
}

void ThreadPool::workerLoop(unsigned Index) {
  // Register this worker's lane up front so the exported trace shows one
  // lane per worker even when fewer tasks than workers arrive.
  TraceCollector &C = TraceCollector::instance();
  if (C.enabled())
    C.setThreadName(strFormat("%s-%u", LanePrefix.c_str(), Index));

  std::unique_lock<std::mutex> Lock(Mu);
  while (true) {
    WorkCV.wait(Lock, [this] { return Shutdown || !Queue.empty(); });
    if (Queue.empty()) {
      if (Shutdown)
        break;
      continue;
    }
    QueuedTask Task = std::move(Queue.front());
    Queue.pop_front();
    ++NumActive;
    Lock.unlock();
    if (C.enabled()) {
      if (Task.EnqueueNs != UINT64_MAX) {
        uint64_t Now = C.nowNs();
        C.completeSpan("task-wait", "pool", Task.EnqueueNs,
                       Now >= Task.EnqueueNs ? Now - Task.EnqueueNs : 0);
      }
      TraceSpan Span("task", "pool");
      Task.Fn();
    } else {
      Task.Fn();
    }
    Lock.lock();
    --NumActive;
    if (Queue.empty() && NumActive == 0)
      IdleCV.notify_all();
  }
}
