#include "marcel/poll_server.hpp"

#include <algorithm>
#include <thread>

#include "common/status.hpp"
#include "marcel/thread.hpp"
#include "sim/sched.hpp"

namespace madmpi::marcel {

struct PollServer::Source final : sim::Doorbell {
  Source(PollServer& owner, channel_id_t id, bool is_cheap, sim::Port* queue,
         std::function<Step()> run)
      : server(owner),
        channel(id),
        cheap(is_cheap),
        port(queue),
        body(std::move(run)) {}

  /// Called by the port under its lock, after the frame is queued.
  void ring() override {
    // A token holder re-checks the port when it releases the token, so a
    // ring while it runs has nothing to add.
    if (done.load(std::memory_order_acquire) ||
        busy.load(std::memory_order_acquire)) {
      return;
    }
    if (cheap && (server.claim(*this) || server.wake_cover())) return;
    wake_poller();
  }

  void wake_poller() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      rung = true;
    }
    cv.notify_one();
  }

  void finish() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      done.store(true, std::memory_order_release);
    }
    cv.notify_one();
  }

  /// Work a token holder must not leave behind: a frame, or a close.
  bool port_pending() const {
    return port != nullptr && (port->has_frame() || port->closed());
  }

  PollServer& server;
  const channel_id_t channel;
  const bool cheap;
  sim::Port* const port;
  const std::function<Step()> body;
  Source* next_cheap = nullptr;

  std::atomic<bool> busy{false};  // the token
  // The source's execution context: its lanes on every clock it touches,
  // and its wakeup count (the schedule jitter's sequence number). Both are
  // only touched under the token.
  sim::VirtualClock::LaneMap lanes;
  std::uint64_t wakeups = 0;

  std::atomic<bool> done{false};
  // The poller thread's doorbell.
  std::mutex mutex;
  std::condition_variable cv;
  bool rung = false;  // guarded by mutex
  std::thread thread;
};

thread_local PollServer::Source* PollServer::t_running_ = nullptr;
thread_local PollServer::Claims PollServer::t_claims_;
thread_local PollServer::SpinHistory PollServer::t_waits_;

PollServer::PollServer(sim::Node& node) : node_(node) {
  node_.attach_progress(this);
}

PollServer::~PollServer() {
  join();
  node_.detach_progress(this);
}

bool PollServer::in_source() { return t_running_ != nullptr; }

PollServer::ClaimScope::ClaimScope(sim::Node& node)
    : ClaimScope(node, Draining{}) {
  // Only the outermost scope is the thread's own send; a nested one sends
  // for the body the thread runs. The cover goes with spinning, so a
  // session that does not spin claims exactly as it did before spinning.
  PollServer* server = node.progress();
  if (open_ && t_claims_.depth == 1 && server != nullptr &&
      server->spin_waits_.load(std::memory_order_relaxed) &&
      !server->sent_.load(std::memory_order_relaxed)) {
    server->sent_.store(true, std::memory_order_release);
  }
}

PollServer::ClaimScope::ClaimScope(sim::Node& node, Draining)
    : open_(!on_fiber()) {
  if (!open_) return;
  Claims& claims = t_claims_;
  if (claims.depth++ == 0) claims.node = &node;
}

PollServer::ClaimScope::~ClaimScope() {
  if (!open_) return;
  Claims& claims = t_claims_;
  if (claims.depth > 1) {
    --claims.depth;
    return;
  }
  // The outermost scope: run the claims with the depth still at one, so
  // the bodies' own sends claim too and join this loop instead of nesting.
  while (!claims.sources.empty()) {
    Source* source = claims.sources.front();
    claims.sources.erase(claims.sources.begin());
    source->server.run_token(*source);
  }
  claims.depth = 0;
  claims.node = nullptr;
}

void PollServer::hand_back_claims() {
  std::vector<Source*> sources;
  sources.swap(t_claims_.sources);
  for (Source* source : sources) {
    source->busy.store(false, std::memory_order_release);
    // The poller thread, not a cover: the covering thread may be this one.
    if (source->port_pending()) source->wake_poller();
  }
}

bool PollServer::holds_claims() { return !t_claims_.sources.empty(); }

void PollServer::add_source(channel_id_t channel, usec_t poll_cost_us,
                            sim::Port* port, std::function<Step()> body) {
  // One poll cheaper than one thread wake: worth doing on every wait.
  const bool cheap = poll_cost_us < ThreadCosts::kWake;
  // Schedule exploration: perturb this channel's poll cost before it
  // enters the interference model, shifting every wakeup on the node.
  // Pure in (seed, node, channel) — identical across replays.
  if (auto* sched = sim::ScheduleController::current()) {
    poll_cost_us +=
        sched->poll_frequency_jitter_us(node_.id(), channel, poll_cost_us);
  }
  node_.register_poller(channel, poll_cost_us);
  auto owned =
      std::make_unique<Source>(*this, channel, cheap, port, std::move(body));
  Source& source = *owned;
  sources_.push_back(std::move(owned));
  // The source's causal birth is the creator's lane after the Marcel
  // creation cost.
  const usec_t birth = node_.clock().advance(ThreadCosts::kCreate);
  sim::VirtualClock::LaneMap* previous =
      sim::VirtualClock::exchange_lane_map(&source.lanes);
  node_.clock().bind_lane(birth);
  sim::VirtualClock::exchange_lane_map(previous);

  if (cheap) {
    source.next_cheap = cheap_head_.load(std::memory_order_relaxed);
    cheap_head_.store(&source, std::memory_order_release);
  }
  if (port != nullptr) port->set_doorbell(&source);
  source.thread = std::thread([this, &source] { poller_main(source); });
}

usec_t PollServer::charge_wakeup(channel_id_t channel) {
  // Teardown drain (TERM broadcasts, late credit returns) still charges
  // virtual time, but must not leak into the process-wide wakeup
  // counter: benches and tests snapshot it around measured windows, and
  // a session tearing down mid-poll would smear nondeterministic drain
  // wakeups into the next window's delta.
  if (!draining()) DatapathStats::global().count_poll_wakeup();
  usec_t extra = ThreadCosts::kWake + node_.poll_interference(channel);
  // Schedule exploration: jitter each wakeup so two sources racing for
  // near-simultaneous arrivals can finish in either order. The sequence
  // number is the running source's own wakeup count: its token serializes
  // its runs, so the count is the source's causal history whichever
  // thread runs it.
  if (auto* sched = sim::ScheduleController::current()) {
    MADMPI_CHECK_MSG(t_running_ != nullptr,
                     "charge_wakeup outside a source body");
    extra += sched->poll_wakeup_jitter_us(node_.id(), channel,
                                          t_running_->wakeups++);
  }
  node_.clock().advance(extra);
  return extra;
}

void PollServer::join() {
  for (auto& source : sources_) {
    if (source->thread.joinable()) source->thread.join();
  }
  for (auto& source : sources_) {
    if (source->port != nullptr) source->port->set_doorbell(nullptr);
  }
}

void PollServer::add_cover(Cover* cover) {
  {
    std::lock_guard<std::mutex> lock(cover_mutex_);
    covers_.push_back(cover);
  }
  // The node is covered for real now; a sender elsewhere on it that has
  // not reached its wait yet is no longer accounted for.
  if (sent_.load(std::memory_order_relaxed)) {
    sent_.store(false, std::memory_order_relaxed);
  }
}

void PollServer::remove_cover(Cover* cover) {
  std::lock_guard<std::mutex> lock(cover_mutex_);
  covers_.erase(std::find(covers_.begin(), covers_.end(), cover));
}

bool PollServer::covered() {
  if (sent_.load(std::memory_order_acquire)) return true;
  std::lock_guard<std::mutex> lock(cover_mutex_);
  return !covers_.empty();
}

bool PollServer::claim(Source& source) {
  Claims& claims = t_claims_;
  if (claims.depth == 0 || (claims.node != &node_ && !covered())) {
    return false;
  }
  // Lost the race for the token: its holder re-checks the port.
  if (!source.busy.exchange(true, std::memory_order_acquire)) {
    claims.sources.push_back(&source);
  }
  return true;
}

bool PollServer::wake_cover() {
  std::lock_guard<std::mutex> lock(cover_mutex_);
  if (covers_.empty()) return false;
  // Only the most recent one: waking every covering thread of the node
  // would have them all race for the same token.
  Cover* cover = covers_.back();
  std::lock_guard<std::mutex> guard(*cover->mutex);
  cover->rung = true;
  // notify_all: other threads may wait on the same cv, and only the one
  // owning this cover has its flag set.
  cover->cv->notify_all();
  return true;
}

void PollServer::drain_cheap() {
  for (Source* source = cheap_head_.load(std::memory_order_acquire);
       source != nullptr; source = source->next_cheap) {
    drain(*source);
  }
}

void PollServer::drain(Source& source) {
  ClaimScope scope(node_, ClaimScope::Draining{});
  if (!source.done.load(std::memory_order_acquire) &&
      !source.busy.exchange(true, std::memory_order_acquire)) {
    run_token(source);
  }
}

void PollServer::run_token(Source& source) {
  do {
    t_running_ = &source;
    sim::VirtualClock::LaneMap* previous =
        sim::VirtualClock::exchange_lane_map(&source.lanes);
    Step step;
    do {
      step = source.body();
    } while (step == Step::kHandled);
    if (step == Step::kIdle && source.port != nullptr &&
        source.port->closed() && !source.port->has_frame()) {
      step = Step::kDone;
    }
    sim::VirtualClock::exchange_lane_map(previous);
    t_running_ = nullptr;
    source.busy.store(false, std::memory_order_release);
    if (step == Step::kDone) {
      source.finish();
      return;
    }
    if (!source.port_pending()) return;
  } while (!source.done.load(std::memory_order_acquire) &&
           !source.busy.exchange(true, std::memory_order_acquire));
}

void PollServer::poller_main(Source& source) {
  for (;;) {
    drain(source);
    std::unique_lock<std::mutex> lock(source.mutex);
    source.cv.wait(lock, [&source] {
      return source.rung || source.done.load(std::memory_order_acquire);
    });
    if (source.done.load(std::memory_order_acquire)) break;
    source.rung = false;
    lock.unlock();
    thread_wakeups_.fetch_add(1, std::memory_order_relaxed);
    // Yield before polling, as the blocking receive this loop replaces
    // did: it narrows the window in which a virtually earlier frame from
    // another peer is still in flight in real time, which keeps
    // arrival-order handling (and so timing) stable.
    std::this_thread::yield();
  }
  node_.unregister_poller(source.channel);
}

}  // namespace madmpi::marcel
