// Persistent worker threads with per-worker FIFO job queues.
//
// The multi-core system offers each round's core jobs to one worker per
// core; it used to pay a thread spawn/join per round. A WorkerPool keeps
// the threads alive for the lifetime of the owner, so handing a job over
// is a queue push plus a condition-variable wake instead of a pthread
// create. The pool has no completion barrier: a poster that needs to know
// when its jobs finished tracks that itself (system::MultiCoreSystem::run
// counts the jobs its workers claimed).
//
// Jobs must not throw: wrap the body and capture std::current_exception()
// at the call site if failure needs to propagate.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace simt::common {

class WorkerPool {
 public:
  explicit WorkerPool(unsigned n) : workers_(n) {
    for (unsigned i = 0; i < n; ++i) {
      workers_[i].thread = std::thread([this, i] { loop(workers_[i]); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    for (auto& w : workers_) {
      {
        std::lock_guard<std::mutex> lock(w.mutex);
        w.stopping = true;
      }
      w.wake.notify_all();
    }
    for (auto& w : workers_) {
      w.thread.join();
    }
  }

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a job on worker `worker` (FIFO per worker).
  void post(unsigned worker, std::function<void()> job) {
    auto& w = workers_.at(worker);
    {
      std::lock_guard<std::mutex> lock(w.mutex);
      w.jobs.push_back(std::move(job));
    }
    w.wake.notify_all();
  }

 private:
  struct Worker {
    std::thread thread;
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<std::function<void()>> jobs;
    bool stopping = false;
  };

  void loop(Worker& w) {
    std::unique_lock<std::mutex> lock(w.mutex);
    for (;;) {
      w.wake.wait(lock, [&w] { return !w.jobs.empty() || w.stopping; });
      if (w.jobs.empty()) {
        return;  // stopping and drained
      }
      auto job = std::move(w.jobs.front());
      w.jobs.pop_front();
      lock.unlock();
      job();
      lock.lock();
    }
  }

  // deque: Worker is neither movable nor copyable (mutex members), and the
  // worker threads capture references into the container.
  std::deque<Worker> workers_;
};

}  // namespace simt::common
