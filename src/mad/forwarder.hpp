// Gateway forwarding across heterogeneous networks.
//
// The paper's prototype requires all nodes to be pairwise connected; its
// conclusion announces "a low-level high-performance forwarding mechanism
// within Madeleine allowing messages to cross gateway nodes". This module
// implements that mechanism: dedicated forwarding channels carry messages
// whose first EXPRESS block is a routing header; a Forwarder service on the
// gateway node relays the remaining blocks onto the next channel, block
// structure and EXPRESS/CHEAPER semantics preserved, without the payload
// ever reaching an application buffer on the gateway.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "mad/channel.hpp"
#include "marcel/poll_server.hpp"

namespace madmpi::mad {

/// Routing header prepended (EXPRESS) to every forwarded message.
struct ForwardHeader {
  node_id_t origin = kInvalidNode;     // first sender
  node_id_t final_dst = kInvalidNode;  // ultimate receiver
  std::uint16_t hops = 0;              // incremented per gateway
};

/// Begin a forwarded message: packs the routing header towards `gateway`.
/// The caller then packs payload blocks and calls end_packing() as usual.
Packing begin_forward_packing(ChannelEndpoint& endpoint, node_id_t gateway,
                              node_id_t final_dst);

/// Receive side of a forwarded message that has reached its final node:
/// unpacks and returns the routing header; the caller then unpacks the
/// payload blocks normally.
ForwardHeader read_forward_header(Unpacking& unpacking);

/// The relay service running on a gateway node.
class Forwarder {
 public:
  /// `gateway` must be a member of every channel added later.
  Forwarder(sim::Node& gateway_node);
  ~Forwarder();

  Forwarder(const Forwarder&) = delete;
  Forwarder& operator=(const Forwarder&) = delete;

  /// Listen for forwardable messages on this channel endpoint.
  void add_ingress(ChannelEndpoint* endpoint);

  /// Declare how to reach `dst`: send on `out` towards `next_hop`
  /// (next_hop == dst for the final hop).
  void add_route(node_id_t dst, ChannelEndpoint* out, node_id_t next_hop);

  /// Register one poll source per ingress. A source ends when its
  /// ingress channel closes.
  void start();

  /// Join the sources' poller threads (close the ingress channels first).
  void stop();

  std::uint64_t forwarded() const { return forwarded_; }

 private:
  struct Route {
    ChannelEndpoint* out;
    node_id_t next_hop;
  };

  void relay(Unpacking incoming);

  sim::Node& gateway_;
  marcel::PollServer poll_server_;
  std::vector<ChannelEndpoint*> ingress_;
  std::map<node_id_t, Route> routes_;
  std::atomic<std::uint64_t> forwarded_{0};
  bool started_ = false;
};

}  // namespace madmpi::mad
