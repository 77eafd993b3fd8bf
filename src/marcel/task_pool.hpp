// Helpers: the paper's temporary Marcel threads (§4.2.3, DESIGN.md §14).
// One that only sends runs in place (run_now); one that blocks until a
// peer replies runs on a reused worker (spawn). The pool is elastic: a
// task goes to an idle worker, or a new worker starts, because a task may
// block until another runs. Each helper runs under a fresh
// VirtualClock::LaneMap, so it sees exactly what a new thread did.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/node.hpp"

namespace madmpi::marcel {

class TaskPool {
 public:
  TaskPool() = default;
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Waits for every submitted task (a running task may submit more), then
  /// joins the workers.
  ~TaskPool() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      idle_.wait(lock, [this] { return in_flight_ == 0; });
      stopping_ = true;
    }
    work_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Run `task` on an idle worker, starting a new one if none is idle.
  void submit(std::function<void()> task) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
    // A woken worker stays counted in waiting_ until it takes a task, so
    // every queued task needs a waiting worker of its own.
    if (waiting_ >= queue_.size()) {
      work_.notify_one();
    } else {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  /// Block until no task is queued or running.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return in_flight_ == 0; });
  }

  /// Workers started over the pool's lifetime.
  std::uint64_t workers_started() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return workers_.size();
  }

 private:
  void worker_main() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ++waiting_;
      work_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      --waiting_;
      if (queue_.empty()) return;  // stopping
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      {
        sim::VirtualClock::LaneMap lanes;
        sim::VirtualClock::LaneMap* previous =
            sim::VirtualClock::exchange_lane_map(&lanes);
        task();
        task = nullptr;  // captures die under the task's own lanes
        sim::VirtualClock::exchange_lane_map(previous);
      }
      lock.lock();
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable work_;  // workers wait here for tasks
  std::condition_variable idle_;  // signalled when in_flight_ reaches 0
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t waiting_ = 0;    // workers blocked on work_
  std::size_t in_flight_ = 0;  // submitted and not yet finished
  bool stopping_ = false;
};

/// Run `fn` as a helper task for `node`: the caller's lane pays `virt_cost`
/// (Marcel's create cost, plus any staging copy) and the task's lane on
/// `node` starts at the time that leaves.
template <typename Fn>
void spawn(TaskPool& pool, sim::Node& node, usec_t virt_cost, Fn&& fn) {
  const usec_t birth = node.clock().advance(virt_cost);
  pool.submit([&node, birth, fn = std::forward<Fn>(fn)]() mutable {
    node.clock().bind_lane(birth);
    fn();
  });
}

/// Run `fn` in place, on the calling thread, charged exactly as spawn
/// charges it: on a fresh lane map, with its lane born at the caller's
/// time plus `virt_cost`. The caller's map (and a fiber's open batch) is
/// restored afterwards. For helpers that never block on a peer.
template <typename Fn>
void run_now(sim::Node& node, usec_t virt_cost, Fn&& fn) {
  const usec_t birth = node.clock().advance(virt_cost);
  sim::VirtualClock::LaneMap lanes;
  sim::VirtualClock::LaneMap* previous =
      sim::VirtualClock::exchange_lane_map(&lanes);
  node.clock().bind_lane(birth);
  std::forward<Fn>(fn)();
  sim::VirtualClock::exchange_lane_map(previous);
}

}  // namespace madmpi::marcel
