// Simulated cluster nodes.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/cost_model.hpp"
#include "sim/virtual_clock.hpp"

namespace madmpi::marcel {
class PollServer;
}

namespace madmpi::sim {

/// One machine of the simulated cluster: identity, a virtual clock shared by
/// every thread the node hosts (rank threads, polling threads), and a
/// registry of active pollers used to model cross-protocol polling
/// interference (the effect measured in Figure 9), and the node's one
/// progress engine: the poll server whose sources a blocked thread of this
/// node drains in place.
class Node {
 public:
  Node(node_id_t id, std::string name, int cpus, bool big_endian = false)
      : id_(id),
        name_(std::move(name)),
        cpus_(cpus),
        big_endian_(big_endian) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  node_id_t id() const { return id_; }
  const std::string& name() const { return name_; }
  int cpus() const { return cpus_; }
  bool big_endian() const { return big_endian_; }

  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }

  /// Register a polling activity (one per Madeleine channel in ch_mad).
  /// `cost_us` is the price of one poll iteration of that protocol.
  void register_poller(channel_id_t channel, usec_t cost_us) {
    std::lock_guard<std::mutex> lock(mutex_);
    pollers_[channel] = cost_us;
  }

  void unregister_poller(channel_id_t channel) {
    std::lock_guard<std::mutex> lock(mutex_);
    pollers_.erase(channel);
  }

  /// Expected delay added to an incoming-message handling on `channel`
  /// because other polling threads share the node's CPUs: on average the
  /// handler waits half of each concurrent poller's iteration cost. This is
  /// the mechanism behind the SCI+TCP degradation of Figure 9.
  usec_t poll_interference(channel_id_t channel) const {
    std::lock_guard<std::mutex> lock(mutex_);
    usec_t extra = 0.0;
    for (const auto& [id, cost] : pollers_) {
      if (id != channel) extra += 0.5 * cost;
    }
    return extra;
  }

  std::size_t active_pollers() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pollers_.size();
  }

  /// The poll server blocked threads of this node drive (null if none).
  marcel::PollServer* progress() const {
    return progress_.load(std::memory_order_acquire);
  }

  /// Install `server` as the node's progress engine unless one is already
  /// installed: the first server on a node keeps the role.
  void attach_progress(marcel::PollServer* server) {
    marcel::PollServer* none = nullptr;
    progress_.compare_exchange_strong(none, server,
                                      std::memory_order_acq_rel);
  }

  /// Drop `server` from the role if it holds it.
  void detach_progress(marcel::PollServer* server) {
    progress_.compare_exchange_strong(server, nullptr,
                                      std::memory_order_acq_rel);
  }

 private:
  const node_id_t id_;
  const std::string name_;
  const int cpus_;
  const bool big_endian_;
  VirtualClock clock_;

  mutable std::mutex mutex_;
  std::map<channel_id_t, usec_t> pollers_;
  std::atomic<marcel::PollServer*> progress_{nullptr};
};

}  // namespace madmpi::sim
