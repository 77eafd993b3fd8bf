// Ablation: gateway forwarding overhead (the paper's §6 goal: "keeping the
// associated overhead as low as possible, especially in terms of
// bandwidth").
//
// Compares direct SCI communication against paths crossing one and two
// gateway nodes, in latency and bandwidth.
#include <cstdio>

#include "bench_common.hpp"

using namespace madmpi;

namespace {

/// Chain of SCI-linked islands: n0 -SCI- n1 -SCI'- n2 -SCI''- n3, each hop
/// its own network so nodes farther apart must be forwarded.
std::unique_ptr<core::Session> chain_session(int hops) {
  // Appended, not `"n" + std::to_string(i)`: at -O3 GCC 12 flags that
  // concatenation with a bogus -Werror=restrict.
  auto name_of = [](int i) {
    std::string name = "n";
    name += std::to_string(i);
    return name;
  };
  sim::ClusterSpec spec;
  for (int i = 0; i <= hops; ++i) {
    sim::NodeSpec node;
    node.name = name_of(i);
    spec.nodes.push_back(node);
  }
  for (int i = 0; i < hops; ++i) {
    sim::NetworkSpec net;
    net.protocol = sim::Protocol::kSisci;
    net.adapter = i;  // distinct adapters: distinct physical networks
    net.members = {name_of(i), name_of(i + 1)};
    spec.networks.push_back(std::move(net));
  }
  core::Session::Options options;
  options.cluster = std::move(spec);
  options.enable_forwarding = true;
  return std::make_unique<core::Session>(std::move(options));
}

core::PingPongResult endpoint_pingpong(core::Session& session,
                                       std::size_t bytes, int reps) {
  // Ping-pong between rank 0 and the LAST rank of the chain.
  const rank_t last = session.world_size() - 1;
  usec_t elapsed = 0.0;
  session.run([&](mpi::Comm comm) {
    if (comm.rank() != 0 && comm.rank() != last) return;
    std::vector<std::byte> buffer(bytes, std::byte{1});
    const auto type = mpi::Datatype::byte();
    const rank_t peer = comm.rank() == 0 ? last : 0;
    auto round = [&] {
      if (comm.rank() == 0) {
        comm.send(buffer.data(), static_cast<int>(bytes), type, peer, 0);
        comm.recv(buffer.data(), static_cast<int>(bytes), type, peer, 0);
      } else {
        comm.recv(buffer.data(), static_cast<int>(bytes), type, peer, 0);
        comm.send(buffer.data(), static_cast<int>(bytes), type, peer, 0);
      }
    };
    round();  // warm-up
    const usec_t start = comm.wtime_us();
    for (int r = 0; r < reps; ++r) round();
    if (comm.rank() == 0) elapsed = comm.wtime_us() - start;
  });
  core::PingPongResult result;
  result.one_way_us = elapsed / (2.0 * reps);
  result.bandwidth_mb_s = bandwidth_mb_s(bytes, result.one_way_us);
  return result;
}

}  // namespace

int main() {
  std::printf("Forwarding overhead across SCI hops (rank0 <-> last rank)\n");
  std::printf("%-12s %14s %14s %18s\n", "path", "4B_us", "64KB_us",
              "1MB_MB/s");
  for (int hops : {1, 2, 3}) {
    auto session = chain_session(hops);
    const auto lat = endpoint_pingpong(*session, 4, 3);
    const auto mid = endpoint_pingpong(*session, 64 * 1024, 2);
    const auto bw = endpoint_pingpong(*session, 1 << 20, 1);
    std::printf("%d hop%-7s %14.1f %14.1f %18.1f\n", hops,
                hops == 1 ? "" : "s", lat.one_way_us, mid.one_way_us,
                bw.bandwidth_mb_s);
  }
  std::printf("\n(latency grows by ~one SCI traversal + relay handling per "
              "hop; bandwidth divides by the hop count because the\n"
              " gateway store-and-forwards whole messages — cut-through "
              "relaying of individual blocks is the natural next step,\n"
              " exactly the 'low overhead especially in terms of bandwidth' "
              "goal the paper's Section 6 sets)\n");
  return 0;
}
