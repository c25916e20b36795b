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
#include <atomic>
#include <memory>

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

void ThreadPool::forEach(size_t N, const std::function<void(size_t)> &Fn) {
  // Shared with the helpers, which can outlive this call: one that starts
  // after every index is claimed reads only Next and N.
  struct Loop {
    const std::function<void(size_t)> *Fn = nullptr;
    size_t N = 0;
    std::atomic<size_t> Next{0};
    std::mutex Mu;
    std::condition_variable DoneCV;
    size_t Done = 0; ///< Indices finished; guarded by Mu.
  };
  auto L = std::make_shared<Loop>();
  L->Fn = &Fn;
  L->N = N;
  std::function<void()> Claim = [L] {
    for (size_t I; (I = L->Next.fetch_add(1)) < L->N;) {
      (*L->Fn)(I);
      std::lock_guard<std::mutex> Lock(L->Mu);
      if (++L->Done == L->N)
        L->DoneCV.notify_all();
    }
  };
  if (N > 1) {
    TraceCollector &C = TraceCollector::instance();
    uint64_t EnqueueNs = C.enabled() ? C.nowNs() : UINT64_MAX;
    size_t Helpers;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      size_t Busy = NumActive + Queue.size();
      Helpers = std::min(N - 1, Busy < Workers.size() ? Workers.size() - Busy
                                                      : size_t(0));
      for (size_t H = 0; H != Helpers; ++H)
        Queue.push_back({Claim, EnqueueNs});
    }
    for (size_t H = 0; H != Helpers; ++H)
      WorkCV.notify_one();
  }
  Claim();
  std::unique_lock<std::mutex> Lock(L->Mu);
  L->DoneCV.wait(Lock, [&] { return L->Done == N; });
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
