#include "mad/madeleine.hpp"

#include <algorithm>

namespace madmpi::mad {

Madeleine::Madeleine(sim::Fabric& fabric, sim::ClusterSpec cluster)
    : fabric_(fabric), cluster_(std::move(cluster)) {
  MADMPI_CHECK_MSG(cluster_.validate().is_ok(), "invalid cluster spec");
  // Create the nodes up front; NICs appear lazily as channels open.
  for (const auto& node : cluster_.nodes) {
    fabric_.add_node(node.name, node.cpus, node.big_endian);
  }
}

Madeleine::~Madeleine() { close_all(); }

net::Driver& Madeleine::driver(sim::Protocol protocol) {
  for (auto& driver : drivers_) {
    if (driver->protocol() == protocol) return *driver;
  }
  drivers_.push_back(net::make_driver(protocol));
  return *drivers_.back();
}

Channel& Madeleine::open_channel(const sim::NetworkSpec& network,
                                 std::string name) {
  net::Driver& drv = driver(network.protocol);
  auto transport = drv.open_channel(fabric_, network, cluster_, name);
  channels_.push_back(std::make_unique<Channel>(
      next_channel_id_++, std::move(name), &drv, std::move(transport)));
  return *channels_.back();
}

std::vector<Channel*> Madeleine::open_default_channels() {
  std::vector<Channel*> out;
  int counter = 0;
  for (const auto& network : cluster_.networks) {
    std::string name = sim::protocol_keyword(network.protocol);
    // Disambiguate multiple networks of the same protocol.
    // Two appends, not `"-" + std::to_string(...)`: at -O3 GCC 12 flags
    // the temporary's concatenation with a bogus -Werror=restrict.
    name += '-';
    name += std::to_string(counter++);
    out.push_back(&open_channel(network, std::move(name)));
  }
  return out;
}

Channel* Madeleine::channel_by_name(const std::string& name) {
  for (auto& channel : channels_) {
    if (channel->name() == name) return channel.get();
  }
  return nullptr;
}

std::vector<Channel*> Madeleine::channels() {
  std::vector<Channel*> out;
  out.reserve(channels_.size());
  for (auto& channel : channels_) out.push_back(channel.get());
  return out;
}

std::vector<Channel*> Madeleine::channels_of(node_id_t node) {
  std::vector<Channel*> out;
  for (auto& channel : channels_) {
    if (channel->has_member(node)) out.push_back(channel.get());
  }
  return out;
}

void Madeleine::close_all() {
  for (auto& channel : channels_) channel->close();
}

}  // namespace madmpi::mad
