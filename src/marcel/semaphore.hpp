// Virtual-time-aware counting semaphore.
//
// The ch_mad rendezvous protocol blocks the MPI control thread on a
// semaphore stored in the rhandle; whoever handles the arriving data
// releases it (paper Section 4.2.2). Every MPI request wait, the blocking
// rendezvous send and smp_plug's hand-off block here too. In virtual
// time, the waiter must wake *no earlier than* the releaser's clock, so
// V() stamps the release time and P() synchronizes the waiter's clock to
// it plus the Marcel wake cost.
//
// A blocked OS thread does not just sleep: it covers its node and drains
// the node's cheap poll sources in place (marcel/poll_server.hpp), so the
// message it waits for usually completes on the waiter itself, with no
// poller thread woken in between. When its session's rank threads fit the
// CPUs with one to spare and its recent waits were short, it spins for up
// to one sleep/wake round trip before it sleeps, so a quick peer's V()
// costs no wake at all; V() stamps its host time for that estimate. A
// fiber parks instead.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/types.hpp"
#include "marcel/engine.hpp"
#include "marcel/poll_server.hpp"
#include "marcel/thread.hpp"
#include "sim/node.hpp"

namespace madmpi::marcel {

class Semaphore {
 public:
  explicit Semaphore(sim::Node& node, int initial = 0)
      : node_(node), count_(initial) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// V: release one waiter. Charges the signal cost to the releaser and
  /// records its clock so the waiter cannot observe an earlier time.
  void signal() {
    const usec_t at = node_.clock().advance(ThreadCosts::kSemSignal);
    // Notify while holding the lock: a waiter may destroy this semaphore
    // the moment it observes the permit, so the notify must not touch the
    // object after the state change becomes visible. A parked fiber,
    // though, owns its own stack: it cannot observe the permit until its
    // shard worker re-polls, so the engine nudge is safe after the lock.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++count_;
      release_times_.push_back(at);
      released_ = PollServer::HostClock::now();
      available_.notify_one();
    }
    engine_notify();
  }

  /// P: wait for a release; wake at max(own clock, releaser clock) + wake
  /// cost. On a fiber this parks the continuation instead of blocking the
  /// shard worker; on an OS thread it drains the node's cheap poll sources
  /// while it waits, spinning first where that pays.
  void wait() {
    usec_t released_at;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      progress_wait(node_, lock, available_, [this] { return count_ > 0; },
                    released_);
      --count_;
      released_at = release_times_.front();
      release_times_.pop_front();
    }
    node_.clock().sync_to(released_at);
    node_.clock().advance(ThreadCosts::kWake);
  }

  /// Non-blocking P; returns false when no permit is available.
  bool try_wait() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ <= 0) return false;
    --count_;
    node_.clock().sync_to(release_times_.front());
    release_times_.pop_front();
    return true;
  }

  int value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  sim::Node& node_;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  int count_;
  std::deque<usec_t> release_times_;
  // Host time of the last V(): how long a wait really waited, for the
  // spin-before-sleep estimate (not virtual time).
  PollServer::HostClock::time_point released_;
};

}  // namespace madmpi::marcel
