#include "mad/forwarder.hpp"

#include <atomic>

#include "common/log.hpp"

namespace madmpi::mad {

Packing begin_forward_packing(ChannelEndpoint& endpoint, node_id_t gateway,
                              node_id_t final_dst) {
  Packing packing = endpoint.begin_packing(gateway);
  ForwardHeader header;
  header.origin = endpoint.node_id();
  header.final_dst = final_dst;
  header.hops = 0;
  packing.pack(&header, sizeof header, SendMode::kSafer, RecvMode::kExpress);
  return packing;
}

ForwardHeader read_forward_header(Unpacking& unpacking) {
  ForwardHeader header;
  unpacking.unpack(&header, sizeof header, SendMode::kSafer,
                   RecvMode::kExpress);
  return header;
}

Forwarder::Forwarder(sim::Node& gateway_node)
    : gateway_(gateway_node), poll_server_(gateway_node) {}

Forwarder::~Forwarder() { stop(); }

void Forwarder::add_ingress(ChannelEndpoint* endpoint) {
  MADMPI_CHECK_MSG(!started_, "add_ingress after start()");
  MADMPI_CHECK_MSG(endpoint->node_id() == gateway_.id(),
                   "ingress endpoint not hosted on the gateway node");
  ingress_.push_back(endpoint);
}

void Forwarder::add_route(node_id_t dst, ChannelEndpoint* out,
                          node_id_t next_hop) {
  MADMPI_CHECK_MSG(out->node_id() == gateway_.id(),
                   "route egress not hosted on the gateway node");
  routes_[dst] = Route{out, next_hop};
}

void Forwarder::start() {
  MADMPI_CHECK_MSG(!started_, "Forwarder started twice");
  started_ = true;
  using Step = marcel::PollServer::Step;
  for (ChannelEndpoint* endpoint : ingress_) {
    poll_server_.add_source(
        endpoint->channel().id(), endpoint->channel().poll_cost(),
        &endpoint->port(), [this, endpoint] {
          auto incoming = endpoint->try_begin_unpacking();
          if (!incoming) return Step::kIdle;
          poll_server_.charge_wakeup(endpoint->channel().id());
          relay(std::move(*incoming));
          return Step::kHandled;
        });
  }
}

void Forwarder::stop() {
  if (!started_) return;
  // Anything relayed past this point is teardown drain: keep its wakeups
  // out of the process-wide datapath counters.
  poll_server_.begin_drain();
  poll_server_.join();
  started_ = false;
}

void Forwarder::relay(Unpacking incoming) {
  ForwardHeader header = read_forward_header(incoming);
  auto route = routes_.find(header.final_dst);
  MADMPI_CHECK_MSG(route != routes_.end(),
                   "no forwarding route for destination node");
  const Route& hop = route->second;
  ++header.hops;

  // The routing header stays in front on every hop — intermediate gateways
  // route on it, and the final receiver recovers the true origin from it.
  Packing out = hop.out->begin_packing(hop.next_hop);
  out.pack(&header, sizeof header, SendMode::kSafer, RecvMode::kExpress);

  while (auto block = incoming.drain_block()) {
    // Drained chunks repack by reference: the relay never copies payload
    // bytes between its ingress and egress channels.
    out.pack_chunk(block->chunk, SendMode::kSafer,
                   block->express ? RecvMode::kExpress : RecvMode::kCheaper);
  }
  incoming.end_unpacking();
  ++forwarded_;  // counted before the flush so receivers observe >= their
                 // own message count once it arrives
  out.end_packing();
  MADMPI_LOG_DEBUG("fwd", "relayed message origin=%d dst=%d hops=%u",
                   header.origin, header.final_dst, header.hops);
}

}  // namespace madmpi::mad
