// Factorized network polling (Marcel + Madeleine cooperation, paper §3.3).
//
// The poll server drives one *source* per polled channel on a node (ch_mad
// registers one per Madeleine channel, §4.2.3; the gateway forwarder one
// per ingress). A source is a non-blocking body (take the next startable
// message if any, charge the wakeup, handle it), a token that serializes
// the body's runs, and the source's own virtual-clock lanes, installed
// around every run. Whichever thread holds the token, every charge lands
// on the same lanes in port order, so virtual time does not depend on who
// ran the body.
//
// The paper polls each protocol at its own frequency: cheap memory-mapped
// polls (SISCI, BIP) every time the scheduler is entered, TCP's select()
// rarely. Here that becomes who runs a source:
//  - A thread of the node that blocks in Semaphore::wait *covers* the
//    node: while it waits it drains every cheap source in place, and a
//    cheap source's doorbell wakes the most recently covering thread. A
//    source is cheap when one poll costs less than waking a thread
//    (poll_cost < ThreadCosts::kWake), so one wake per message replaces
//    two (poller thread, then the rank).
//  - A thread that delivers a frame to a cheap source runs that source
//    itself when it can (a *claim*), instead of waking anybody: the ring
//    takes the source's free token for the delivering thread if that
//    thread has a ClaimScope open and the source's node is the thread's
//    own or is covered. The thread runs its claims when its outermost
//    scope closes, holding no locks. So a rendezvous handshake between
//    two SISCI nodes runs REQUEST, ACK and DATA on the sending thread,
//    and the only wake left is the receiver's completion.
//  - Every source keeps one poller thread. It drains the source when the
//    doorbell finds nobody covering and no claimer, and always for
//    expensive sources.
//  - A covering thread spins before it sleeps: the paper's idle CPU polls
//    rather than parks. It re-checks its permit for up to kSpinBudget of
//    host time, about one sleep/wake round trip, and only then sleeps on
//    its condition variable. Two gates keep the spin where it saves more
//    than it burns: the session's rank threads must fit the process's
//    CPUs with one to spare for the poller threads (set_spin_waits, set
//    by Session::run), and the thread's recent waits must have ended
//    within the budget (SpinHistory). Spinning charges no virtual time:
//    a drain charges only the messages it handles, on the source's own
//    lanes.
// A frame is never stranded: whoever releases a token re-checks the port
// and drains again if a frame arrived meanwhile, since the ring for that
// frame may have gone to a thread that could not take the token. A thread
// about to block inside a body first hands its unrun claims back
// (hand_back_claims), so no token waits on a thread that sleeps.
// While its threads may spin, a node also counts as covered for claims
// from the moment one of its threads opens a sending ClaimScope until a
// thread of the node next starts a covering wait: a rank that has just
// sent is usually on its way to its wait, and a spinning peer's reply
// must not find the node bare and wake the poller thread in that gap.
// Claiming is always safe, so this estimate may err; waking a cover
// still needs a real one. Where spinning is off this cover is off too,
// and claims run exactly as they would with no spin support at all.
//
// Each source is also declared on the node so concurrent pollers
// interfere: handling a message on channel X is delayed by the other
// channels' polling costs — exactly the effect the paper measures in
// Figure 9 (SCI alone vs SCI+TCP).
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/datapath_stats.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "marcel/engine.hpp"
#include "sim/node.hpp"
#include "sim/port.hpp"

namespace madmpi::marcel {

class PollServer {
 public:
  /// What one run of a source's body did.
  enum class Step {
    kIdle,     // nothing startable: wait for the doorbell
    kHandled,  // handled one message: run again
    kDone,     // the source shut down: its poller thread exits
  };

  /// Becomes `node`'s progress engine unless the node already has one.
  explicit PollServer(sim::Node& node);
  PollServer(const PollServer&) = delete;
  PollServer& operator=(const PollServer&) = delete;
  ~PollServer();

  /// Register one source and start its poller thread. `body` must never
  /// wait for an arrival: it returns kIdle instead. `port` is the queue
  /// the body drains; its doorbell is attached here, and a closed, empty
  /// port ends the source. With a null port only kDone ends it.
  /// `poll_cost_us` is the price of one poll of this protocol: it feeds
  /// the interference model and decides whether the source is cheap.
  void add_source(channel_id_t channel, usec_t poll_cost_us, sim::Port* port,
                  std::function<Step()> body);

  /// Charge the virtual cost of waking up to handle one message on
  /// `channel`: the Marcel wake plus the interference of the other pollers.
  /// Called by a source's body once it has a message.
  usec_t charge_wakeup(channel_id_t channel);

  using HostClock = std::chrono::steady_clock;

  /// How long a covering thread spins before it sleeps. A condition
  /// variable sleep/wake round trip between two threads takes about 14 us
  /// of host time on a 4-vCPU VM, so a peer that itself sleeps answers an
  /// eager message in roughly that; the budget has to cover it, or both
  /// sides latch into sleeping (a 10 us budget did).
  static constexpr HostClock::duration kSpinBudget =
      std::chrono::microseconds(20);

  /// Wait on `cv` under `lock` until `ready()`, draining the node's cheap
  /// sources in place meanwhile and spinning first when the gates allow
  /// (see the header comment). `released` is the host time at which the
  /// releaser last made `ready()` true, guarded by `lock`.
  template <typename Pred>
  void wait_covering(std::unique_lock<std::mutex>& lock,
                     std::condition_variable& cv, Pred ready,
                     const HostClock::time_point& released) {
    Cover self{lock.mutex(), &cv};
    lock.unlock();
    add_cover(&self);
    drain_cheap();
    lock.lock();
    if (!ready()) {
      const bool may_spin = spin_waits_.load(std::memory_order_relaxed);
      const HostClock::time_point entry =
          may_spin ? HostClock::now() : HostClock::time_point{};
      bool spinning = may_spin && t_waits_.spin();
      if (spinning) spun_waits_.fetch_add(1, std::memory_order_relaxed);
      while (!ready()) {
        if (self.rung) {
          self.rung = false;
          lock.unlock();
          drain_cheap();
          lock.lock();
        } else if (spinning) {
          spinning = relax(lock, entry + kSpinBudget);
        } else {
          cv.wait(lock);
        }
      }
      if (may_spin) t_waits_.record(released - entry > kSpinBudget);
    }
    lock.unlock();
    // A ring that came in after the permit was rung here, not at the next
    // covering thread: drain once more once no ring can reach this thread.
    remove_cover(&self);
    drain_cheap();
    lock.lock();
    // Only another waiter on the same cv can have taken the permit since.
    cv.wait(lock, ready);
  }

  /// Let blocked threads of this node spin before they sleep. Worth it
  /// only while every rank thread has a CPU of its own and one is left
  /// over: a spinner that shares its CPU delays the very thread it waits
  /// for, be it the peer rank or a poller thread. Also turns on the
  /// sending scope's cover (see the header comment).
  void set_spin_waits(bool on) {
    spin_waits_.store(on, std::memory_order_relaxed);
  }

  /// True while the calling thread runs a source's body. A wait inside a
  /// body must not drain sources: the thread holds a token already.
  static bool in_source();

  /// Lets the calling OS thread claim the cheap sources it delivers
  /// frames to (see the header comment); a no-op on a fiber. `node` is the
  /// thread's own node, fixed by the outermost scope. Open one only where
  /// the thread holds no locks: the outermost scope runs the claims when
  /// it closes. A scope opened here is a sending one: while `node`'s
  /// threads may spin, it covers `node` for claims until a thread of
  /// `node` next waits.
  class ClaimScope {
   public:
    explicit ClaimScope(sim::Node& node);
    ~ClaimScope();
    ClaimScope(const ClaimScope&) = delete;
    ClaimScope& operator=(const ClaimScope&) = delete;

   private:
    friend class PollServer;
    struct Draining {};
    // A drain's scope: claims, but covers nothing.
    ClaimScope(sim::Node& node, Draining);

    bool open_;
  };

  /// Release the tokens of the calling thread's unrun claims and wake
  /// their poller threads. A thread about to block inside a body calls
  /// this first: a claimed token stays taken until its claimer runs it.
  static void hand_back_claims();

  /// True while the calling thread holds claims it has not run yet.
  static bool holds_claims();

  sim::Node& node() { return node_; }
  std::size_t poller_count() const { return sources_.size(); }

  /// Times a poller thread was woken by its doorbell: the wakeups that
  /// draining in place did not save.
  std::uint64_t thread_wakeups() const {
    return thread_wakeups_.load(std::memory_order_relaxed);
  }

  /// Waits of this node's threads that spun before they slept or
  /// returned.
  std::uint64_t spun_waits() const {
    return spun_waits_.load(std::memory_order_relaxed);
  }

  /// Mark the teardown drain: wakeups from here on are session shutdown
  /// traffic, not workload, and stay out of DatapathStats.
  void begin_drain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Join every poller thread and detach the doorbells. Each source must
  /// end first: its body returns kDone, or its port closes.
  void join();

 private:
  struct Source;

  /// A thread covering the node, as the doorbell sees it: the mutex and cv
  /// of the semaphore it waits on, and the flag a ring sets.
  struct Cover {
    std::mutex* mutex;
    std::condition_variable* cv;
    bool rung = false;  // guarded by *mutex
  };

  /// The calling thread's claim scopes: how deep they nest, the node of
  /// the outermost one, and the sources whose tokens it claimed, in ring
  /// order.
  struct Claims {
    int depth = 0;
    sim::Node* node = nullptr;
    std::vector<Source*> sources;
  };

  /// The calling thread's last 16 waits, newest in the low bit: a bit is
  /// set when the wait outlasted kSpinBudget, measured from its start to
  /// the releaser's stamp, so a sleeper's own wake latency does not count.
  /// A thread spins only while at most one recent wait missed: waits near
  /// the budget (a rendezvous peer filling its data) hit now and then but
  /// would mostly spin in vain, and a mean of their lengths dips below
  /// the budget often enough to let them. A new thread starts as if all
  /// its waits had missed, so it earns its spin with 15 short waits and a
  /// session's first messages, its set-up, sleep as before.
  struct SpinHistory {
    std::uint16_t misses = 0xffff;
    bool spin() const { return std::popcount(misses) <= 1; }
    void record(bool missed) {
      misses = static_cast<std::uint16_t>(misses << 1 | (missed ? 1 : 0));
    }
  };

  /// Let go of `lock`, pause the CPU briefly and take `lock` back without
  /// sleeping on it. False once `deadline` has passed.
  static bool relax(std::unique_lock<std::mutex>& lock,
                    HostClock::time_point deadline) {
    lock.unlock();
    bool before = true;
    do {
      for (int i = 0; i < 8; ++i) {
#if defined(__x86_64__) || defined(__i386__)
        _mm_pause();
#endif
      }
      before = HostClock::now() < deadline;
    } while (!lock.try_lock());
    return before;
  }

  void add_cover(Cover* cover);
  void remove_cover(Cover* cover);
  bool covered();
  /// Wake the most recently covering thread; false when none covers.
  bool wake_cover();
  /// Called by `source`'s ring: take its token for the calling thread if
  /// the claim rule allows. True when the ring needs nothing more.
  bool claim(Source& source);
  void drain_cheap();
  /// Run `source`'s body under its token until it goes idle. Returns at
  /// once if another thread holds the token.
  void drain(Source& source);
  /// The one body-running routine: the caller holds `source`'s token.
  /// Runs the body until idle, releases the token, and takes it again
  /// while a frame arrived meanwhile.
  void run_token(Source& source);
  void poller_main(Source& source);

  // The source the calling thread is running, if any.
  static thread_local Source* t_running_;
  static thread_local Claims t_claims_;
  static thread_local SpinHistory t_waits_;

  sim::Node& node_;
  std::vector<std::unique_ptr<Source>> sources_;
  // Cheap sources, newest first; linked once and never unlinked, so
  // waiters walk the list without a lock.
  std::atomic<Source*> cheap_head_{nullptr};
  std::mutex cover_mutex_;
  std::vector<Cover*> covers_;  // guarded by cover_mutex_
  // Spinning is on, a thread of this node opened a sending ClaimScope and
  // no thread of it has started a covering wait since.
  std::atomic<bool> sent_{false};
  std::atomic<bool> spin_waits_{false};
  std::atomic<std::uint64_t> thread_wakeups_{0};
  std::atomic<std::uint64_t> spun_waits_{0};
  std::atomic<bool> draining_{false};
};

/// Condition-variable wait for a thread of `node`: parks on a fiber,
/// drains the node's cheap sources in place on any other thread that is
/// not already running a source, and otherwise waits plainly. `released`
/// is as for PollServer::wait_covering.
template <typename Pred>
void progress_wait(sim::Node& node, std::unique_lock<std::mutex>& lock,
                   std::condition_variable& cv, Pred ready,
                   const PollServer::HostClock::time_point& released) {
  if (ready()) return;
  if (PollServer::in_source()) {
    lock.unlock();
    PollServer::hand_back_claims();
    lock.lock();
  }
  MADMPI_CHECK_MSG(!PollServer::holds_claims(),
                   "a thread blocks on claims it has not run");
  PollServer* progress = node.progress();
  if (progress == nullptr || on_fiber() || PollServer::in_source()) {
    engine_wait(lock, cv, ready);
    return;
  }
  progress->wait_covering(lock, cv, ready, released);
}

}  // namespace madmpi::marcel
