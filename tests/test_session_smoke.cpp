// End-to-end smoke tests: full sessions over each network type.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "sim/sched.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

Session::Options two_node_options(sim::Protocol protocol) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  return options;
}

// Seeded replay is exact only inside one node: a seeded multi-node session
// says so once, a seeded single-node session stays quiet.
TEST(SessionSmoke, SeededReplayWarnsOnMultiNodeSessionsOnly) {
  sim::ScheduleController::install(7);
  testing::internal::CaptureStderr();
  { Session two_nodes(two_node_options(sim::Protocol::kSisci)); }
  const std::string multi = testing::internal::GetCapturedStderr();

  Session::Options one_node;
  one_node.cluster = sim::ClusterSpec::homogeneous(1, sim::Protocol::kTcp, 2);
  testing::internal::CaptureStderr();
  { Session single(std::move(one_node)); }
  const std::string single = testing::internal::GetCapturedStderr();
  sim::ScheduleController::uninstall();

  const std::string warning = "seeded replay is exact for single-node";
  std::size_t count = 0;
  for (std::size_t at = multi.find(warning); at != std::string::npos;
       at = multi.find(warning, at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << multi;
  EXPECT_EQ(single.find(warning), std::string::npos) << single;
}

TEST(SessionSmoke, TcpPingPong) {
  Session session(two_node_options(sim::Protocol::kTcp));
  session.run([](Comm comm) {
    std::vector<int> data(16, comm.rank());
    if (comm.rank() == 0) {
      comm.send(data.data(), 16, Datatype::int32(), 1, 7);
      std::vector<int> back(16, -1);
      comm.recv(back.data(), 16, Datatype::int32(), 1, 8);
      for (int v : back) EXPECT_EQ(v, 1);
    } else {
      std::vector<int> in(16, -1);
      comm.recv(in.data(), 16, Datatype::int32(), 0, 7);
      for (int v : in) EXPECT_EQ(v, 0);
      comm.send(data.data(), 16, Datatype::int32(), 0, 8);
    }
  });
}

TEST(SessionSmoke, SciRendezvousLargeMessage) {
  Session session(two_node_options(sim::Protocol::kSisci));
  constexpr std::size_t kCount = 64 * 1024;  // 256 KB > 8 KB switch point
  session.run([](Comm comm) {
    if (comm.rank() == 0) {
      std::vector<int> data(kCount);
      std::iota(data.begin(), data.end(), 0);
      comm.send(data.data(), static_cast<int>(kCount), Datatype::int32(), 1,
                0);
    } else {
      std::vector<int> in(kCount, -1);
      auto status =
          comm.recv(in.data(), static_cast<int>(kCount), Datatype::int32(),
                    0, 0);
      EXPECT_EQ(status.bytes, kCount * sizeof(int));
      for (std::size_t i = 0; i < kCount; ++i) {
        ASSERT_EQ(in[i], static_cast<int>(i)) << "at index " << i;
      }
    }
  });
}

TEST(SessionSmoke, MultiProtocolClusterOfClusters) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2);
  Session session(std::move(options));
  // SCI pair routes over SISCI, Myrinet pair over BIP, cross-cluster TCP.
  auto* device = session.ch_mad();
  ASSERT_NE(device, nullptr);
  EXPECT_EQ(device->switch_point(), 8u * 1024u);  // SCI present -> 8 KB
  EXPECT_EQ(device->router().route(0, 1)->protocol(), sim::Protocol::kSisci);
  EXPECT_EQ(device->router().route(2, 3)->protocol(), sim::Protocol::kBip);
  EXPECT_EQ(device->router().route(0, 2)->protocol(), sim::Protocol::kTcp);

  session.run([](Comm comm) {
    // Ring exchange touching all three networks.
    const int to = (comm.rank() + 1) % comm.size();
    const int from = (comm.rank() - 1 + comm.size()) % comm.size();
    int token = comm.rank() * 100;
    int incoming = -1;
    comm.sendrecv(&token, 1, Datatype::int32(), to, 1, &incoming, 1,
                  Datatype::int32(), from, 1);
    EXPECT_EQ(incoming, from * 100);
  });
}

TEST(SessionSmoke, IntraNodeAndSelf) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(1, sim::Protocol::kTcp, 2);
  // A single network needs >= 2 members; with one dual-rank node there is
  // no inter-node traffic, so drop the network entirely.
  options.cluster.networks.clear();
  Session session(std::move(options));
  session.run([](Comm comm) {
    // Self round-trip via irecv.
    int self_in = -1;
    auto req = comm.irecv(&self_in, 1, Datatype::int32(), comm.rank(), 5);
    const int self_out = 42 + comm.rank();
    comm.send(&self_out, 1, Datatype::int32(), comm.rank(), 5);
    req.wait();
    EXPECT_EQ(self_in, 42 + comm.rank());

    // smp_plug exchange between the two ranks of the node.
    const int peer = 1 - comm.rank();
    int out = comm.rank() + 1000;
    int in = -1;
    comm.sendrecv(&out, 1, Datatype::int32(), peer, 2, &in, 1,
                  Datatype::int32(), peer, 2);
    EXPECT_EQ(in, peer + 1000);
  });
}

TEST(SessionSmoke, VirtualTimeAdvances) {
  Session session(two_node_options(sim::Protocol::kTcp));
  session.run([](Comm comm) {
    const double t0 = comm.wtime_us();
    if (comm.rank() == 0) {
      char byte = 'x';
      comm.send(&byte, 1, Datatype::byte(), 1, 0);
      comm.recv(&byte, 1, Datatype::byte(), 1, 0);
      const double elapsed = comm.wtime_us() - t0;
      // A TCP round trip costs on the order of 2 x ~150 us of virtual time.
      EXPECT_GT(elapsed, 150.0);
      EXPECT_LT(elapsed, 1500.0);
    } else {
      char byte = 0;
      comm.recv(&byte, 1, Datatype::byte(), 0, 0);
      comm.send(&byte, 1, Datatype::byte(), 0, 0);
    }
  });
}

}  // namespace
}  // namespace madmpi
