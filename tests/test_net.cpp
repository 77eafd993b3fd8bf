// Tests for the network driver layer: endpoints, transports, block plans.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "net/bip_driver.hpp"
#include "net/driver.hpp"
#include "net/shmem_driver.hpp"
#include "net/sisci_driver.hpp"
#include "net/tcp_driver.hpp"

namespace madmpi::net {
namespace {

/// Two-node fixture with one channel transport of the given protocol.
struct TwoNodeTransport {
  explicit TwoNodeTransport(sim::Protocol protocol)
      : cluster(sim::ClusterSpec::homogeneous(2, protocol)),
        driver(make_driver(protocol)) {
    for (const auto& node : cluster.nodes) fabric.add_node(node.name);
    transport = driver->open_channel(fabric, cluster.networks[0], cluster,
                                     "test");
  }
  sim::Fabric fabric;
  sim::ClusterSpec cluster;
  std::unique_ptr<Driver> driver;
  std::unique_ptr<ChannelTransport> transport;
};

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Transport, ControlOnlyMessageRoundTrip) {
  TwoNodeTransport net(sim::Protocol::kTcp);
  Endpoint* a = net.transport->endpoint(0);
  Endpoint* b = net.transport->endpoint(1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  const auto payload = bytes_of("hello");
  a->send_message(1, byte_span{payload.data(), payload.size()}, {});

  auto incoming = b->next_message_blocking();
  ASSERT_TRUE(incoming.has_value());
  EXPECT_EQ(incoming->source(), 0);
  EXPECT_TRUE(incoming->control_was_last());
  ASSERT_EQ(incoming->control_payload().size(), 5u);
  EXPECT_EQ(std::memcmp(incoming->control_payload().data(), "hello", 5), 0);
}

TEST(Transport, SeparateDataBlocksArriveInOrder) {
  TwoNodeTransport net(sim::Protocol::kSisci);
  Endpoint* a = net.transport->endpoint(0);
  Endpoint* b = net.transport->endpoint(1);

  const auto block1 = bytes_of("first-block");
  const auto block2 = bytes_of("second");
  std::vector<DataBlock> blocks = {
      {byte_span{block1.data(), block1.size()}, true},
      {byte_span{block2.data(), block2.size()}, false},
  };
  const auto control = bytes_of("ctl");
  a->send_message(1, byte_span{control.data(), control.size()}, blocks);

  auto incoming = b->next_message_blocking();
  ASSERT_TRUE(incoming.has_value());
  EXPECT_FALSE(incoming->control_was_last());
  sim::Frame f1 = incoming->take_data_block();
  EXPECT_EQ(f1.payload.size(), block1.size());
  EXPECT_TRUE(f1.zero_copy);
  EXPECT_FALSE(f1.last_of_message);
  sim::Frame f2 = incoming->take_data_block();
  EXPECT_EQ(f2.payload.size(), block2.size());
  EXPECT_FALSE(f2.zero_copy);
  EXPECT_TRUE(f2.last_of_message);
}

TEST(Transport, PerSourceFifoAcrossInterleavedSenders) {
  // Three nodes; 0 and 2 both send bursts to 1. Messages from each source
  // must be received in their send order.
  auto cluster = sim::ClusterSpec::homogeneous(3, sim::Protocol::kTcp);
  sim::Fabric fabric;
  for (const auto& node : cluster.nodes) fabric.add_node(node.name);
  auto driver = make_driver(sim::Protocol::kTcp);
  auto transport =
      driver->open_channel(fabric, cluster.networks[0], cluster, "t");

  constexpr int kBurst = 20;
  auto sender = [&](node_id_t self) {
    Endpoint* ep = transport->endpoint(self);
    for (int i = 0; i < kBurst; ++i) {
      std::uint32_t word = (static_cast<std::uint32_t>(self) << 16) |
                           static_cast<std::uint32_t>(i);
      ep->send_message(1, byte_span{reinterpret_cast<std::byte*>(&word),
                                    sizeof word},
                       {});
    }
  };
  std::thread t0(sender, 0);
  std::thread t2(sender, 2);

  Endpoint* receiver = transport->endpoint(1);
  int next_from[3] = {0, 0, 0};
  for (int received = 0; received < 2 * kBurst; ++received) {
    auto incoming = receiver->next_message_blocking();
    ASSERT_TRUE(incoming.has_value());
    std::uint32_t word = 0;
    std::memcpy(&word, incoming->control_payload().data(), sizeof word);
    const int src = static_cast<int>(word >> 16);
    const int seq = static_cast<int>(word & 0xffff);
    EXPECT_EQ(src, incoming->source());
    EXPECT_EQ(seq, next_from[src]++) << "out-of-order from " << src;
  }
  t0.join();
  t2.join();
  EXPECT_EQ(receiver->messages_received(), 2u * kBurst);
}

TEST(Transport, PollMessageNonBlocking) {
  TwoNodeTransport net(sim::Protocol::kBip);
  Endpoint* a = net.transport->endpoint(0);
  Endpoint* b = net.transport->endpoint(1);
  EXPECT_FALSE(b->poll_message().has_value());
  EXPECT_FALSE(b->port().has_frame());
  const auto payload = bytes_of("x");
  a->send_message(1, byte_span{payload.data(), payload.size()}, {});
  EXPECT_TRUE(b->port().has_frame());
  EXPECT_TRUE(b->poll_message().has_value());
}

TEST(Transport, CloseUnblocksReceiver) {
  TwoNodeTransport net(sim::Protocol::kTcp);
  Endpoint* b = net.transport->endpoint(1);
  std::thread closer([&] { b->close(); });
  EXPECT_FALSE(b->next_message_blocking().has_value());
  closer.join();
}

TEST(Transport, SendToUnknownPeerAborts) {
  TwoNodeTransport net(sim::Protocol::kTcp);
  Endpoint* a = net.transport->endpoint(0);
  EXPECT_DEATH(a->send_message(42, byte_span{}, {}), "no path");
}

TEST(Transport, ClockAdvancesWithTraffic) {
  TwoNodeTransport net(sim::Protocol::kTcp);
  Endpoint* a = net.transport->endpoint(0);
  Endpoint* b = net.transport->endpoint(1);
  const usec_t before = net.fabric.node(1).clock().now();
  const auto payload = bytes_of("data");
  a->send_message(1, byte_span{payload.data(), payload.size()}, {});
  auto incoming = b->next_message_blocking();
  ASSERT_TRUE(incoming.has_value());
  // Receiver clock must reflect TCP's ~85 us of fixed path at least.
  EXPECT_GT(net.fabric.node(1).clock().now(), before + 80.0);
  // And the sender paid its send overhead.
  EXPECT_GT(net.fabric.node(0).clock().now(), 30.0);
}

TEST(Drivers, BlockPlansFollowProtocolCharacter) {
  TcpDriver tcp;
  EXPECT_TRUE(tcp.plan_block(32).aggregate);
  EXPECT_FALSE(tcp.plan_block(4096).aggregate);
  EXPECT_FALSE(tcp.plan_block(4096).zero_copy);  // sockets never zero-copy

  SisciDriver sisci;
  EXPECT_TRUE(sisci.plan_block(64).aggregate);
  EXPECT_TRUE(sisci.plan_block(65).zero_copy);

  BipDriver bip;
  EXPECT_TRUE(bip.plan_block(64).aggregate);
  EXPECT_TRUE(bip.plan_block(512).zero_copy);

  ShmemDriver shmem;
  EXPECT_TRUE(shmem.plan_block(512).aggregate);
  EXPECT_FALSE(shmem.plan_block(4096).zero_copy);
}

TEST(Drivers, PollCostsReflectSelectVsMemoryPoll) {
  TcpDriver tcp;
  SisciDriver sisci;
  BipDriver bip;
  // The paper's rationale for per-protocol polling frequency (§3.3): the
  // select() call is orders of magnitude more expensive.
  EXPECT_GT(tcp.poll_cost(), 10.0 * sisci.poll_cost());
  EXPECT_GT(tcp.poll_cost(), 10.0 * bip.poll_cost());
}

TEST(Drivers, FactoryCoversAllProtocols) {
  for (auto protocol : {sim::Protocol::kTcp, sim::Protocol::kSisci,
                        sim::Protocol::kBip, sim::Protocol::kShmem}) {
    auto driver = make_driver(protocol);
    ASSERT_NE(driver, nullptr);
    EXPECT_EQ(driver->protocol(), protocol);
  }
}

TEST(Transport, EndpointLookupByNode) {
  TwoNodeTransport net(sim::Protocol::kTcp);
  EXPECT_NE(net.transport->endpoint(0), nullptr);
  EXPECT_NE(net.transport->endpoint(1), nullptr);
  EXPECT_EQ(net.transport->endpoint(5), nullptr);
  EXPECT_EQ(net.transport->members().size(), 2u);
}

}  // namespace
}  // namespace madmpi::net
