// Ablation: the hierarchical collective engine at scale (PR 9).
//
// Flat binomial/dissemination algorithms treat the meta-cluster as a
// uniform rank set, so every tree edge is equally likely to be a TCP
// interconnect hop. The hierarchical engine walks the topology digest
// instead — island (shared memory) -> cluster (SCI) -> interconnect
// (TCP) — and the modeled NIC offload moves the barrier/bcast forwarding
// tree onto the SCI adapters entirely. This bench quantifies both against
// the flat baselines at 16..1024 ranks under both session engines, plus
// the ibcast overlap headline (communication hidden behind compute).
//
// --json <path> writes the machine-readable series consumed by CI
// (docs/results/BENCH_collectives.json pins the committed trajectory).
// Thread-per-rank is only taken to 256 ranks — past that the OS thread
// count itself is the bottleneck (same cap as the scale-out ablation);
// those cells are reported as 0 in the JSON rather than silently skipped.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace madmpi;

namespace {

/// `ranks` total over `clusters` SCI islands of `ranks_per`-rank machines
/// (last machine of a cluster takes the remainder), TCP interconnect.
/// Deliberately misaligned — non-power-of-two cluster and node sizes — so
/// a flat binomial tree's rank±2^k edges cross the interconnect at many
/// levels. (On power-of-two-aligned shapes the flat binomial tree IS the
/// hierarchical tree and the comparison measures nothing.)
struct Shape {
  int ranks;
  int clusters;
  int ranks_per;
};

constexpr Shape kShapes[] = {
    {16, 2, 3},
    {64, 3, 5},
    {256, 3, 6},
    {1024, 5, 7},
};
constexpr int kThreadedRankCap = 256;

sim::ClusterSpec meta_cluster(const Shape& shape, int clusters) {
  sim::ClusterSpec spec;
  sim::NetworkSpec tcp;
  tcp.protocol = sim::Protocol::kTcp;
  for (int c = 0; c < clusters; ++c) {
    int remaining =
        shape.ranks / clusters + (c < shape.ranks % clusters ? 1 : 0);
    sim::NetworkSpec sci;
    sci.protocol = sim::Protocol::kSisci;
    sci.adapter = static_cast<adapter_id_t>(c);
    for (int n = 0; remaining > 0; ++n) {
      sim::NodeSpec node;
      node.name = "c";
      node.name += std::to_string(c);
      node.name += 'n';
      node.name += std::to_string(n);
      node.ranks = std::min(shape.ranks_per, remaining);
      remaining -= node.ranks;
      spec.nodes.push_back(node);
      sci.members.push_back(node.name);
      tcp.members.push_back(node.name);
    }
    spec.networks.push_back(std::move(sci));
  }
  spec.networks.push_back(std::move(tcp));
  return spec;
}

sim::ClusterSpec meta_cluster(const Shape& shape) {
  return meta_cluster(shape, shape.clusters);
}

/// One timed collective on a fresh session: configure, warm up, sync,
/// report the slowest rank's virtual elapsed time (completion latency —
/// a bcast root's own elapsed only covers its sends).
usec_t time_op(sim::ClusterSpec cluster, const mpi::CollectiveConfig& config,
               const std::function<void(mpi::Comm)>& op) {
  core::Session::Options options;
  options.cluster = std::move(cluster);
  core::Session session(std::move(options));
  usec_t elapsed = 0.0;
  session.run([&](mpi::Comm comm) {
    comm.set_collective_config(config);
    op(comm);  // warm-up
    comm.barrier();
    const usec_t t0 = comm.wtime_us();
    op(comm);
    usec_t local = comm.wtime_us() - t0;
    usec_t slowest = 0.0;
    comm.allreduce(&local, &slowest, 1, mpi::Datatype::float64(),
                   mpi::Op::max());
    if (comm.rank() == 0) elapsed = slowest;
  });
  return elapsed;
}

constexpr std::size_t kPayloadBytes = 64 * 1024;

usec_t time_bcast(const Shape& shape, mpi::BcastAlgorithm algorithm) {
  mpi::CollectiveConfig config;
  config.bcast = algorithm;
  return time_op(meta_cluster(shape), config, [](mpi::Comm comm) {
    std::vector<std::byte> payload(kPayloadBytes);
    comm.bcast(payload.data(), static_cast<int>(payload.size()),
               mpi::Datatype::byte(), 0);
  });
}

usec_t time_allreduce(const Shape& shape, mpi::AllreduceAlgorithm algorithm) {
  mpi::CollectiveConfig config;
  config.allreduce = algorithm;
  return time_op(meta_cluster(shape), config, [](mpi::Comm comm) {
    std::vector<double> mine(kPayloadBytes / sizeof(double), 1.0);
    std::vector<double> total(mine.size());
    comm.allreduce(mine.data(), total.data(), static_cast<int>(mine.size()),
                   mpi::Datatype::float64(), mpi::Op::sum());
  });
}

/// Barriers run on the single-SCI-cluster variant of the same shape (the
/// NIC offload needs a homogeneous leader fabric; the host trees get the
/// identical topology for a fair fight).
usec_t time_barrier(const Shape& shape, mpi::BarrierAlgorithm algorithm) {
  mpi::CollectiveConfig config;
  config.barrier = algorithm;
  return time_op(meta_cluster(shape, /*clusters=*/1), config,
                 [](mpi::Comm comm) { comm.barrier(); });
}

/// Overlap headline: ibcast + a compute phase of comparable length. The
/// schedule advances from the progress engine, so the elapsed time should
/// approach max(bcast, compute), not their sum.
struct OverlapResult {
  usec_t blocking_sum_us = 0.0;
  usec_t overlapped_us = 0.0;
};

OverlapResult time_overlap(const Shape& shape) {
  constexpr usec_t kComputeUs = 3000.0;
  OverlapResult result;
  core::Session::Options options;
  options.cluster = meta_cluster(shape);
  core::Session session(std::move(options));
  session.run([&](mpi::Comm comm) {
    std::vector<std::byte> payload(kPayloadBytes);
    comm.bcast(payload.data(), static_cast<int>(payload.size()),
               mpi::Datatype::byte(), 0);  // warm-up
    comm.barrier();
    usec_t t0 = comm.wtime_us();
    comm.bcast(payload.data(), static_cast<int>(payload.size()),
               mpi::Datatype::byte(), 0);
    comm.compute_us(kComputeUs);
    comm.barrier();
    if (comm.rank() == 0) result.blocking_sum_us = comm.wtime_us() - t0;

    comm.barrier();
    t0 = comm.wtime_us();
    mpi::Request request = comm.ibcast(
        payload.data(), static_cast<int>(payload.size()),
        mpi::Datatype::byte(), 0);
    comm.compute_us(kComputeUs);
    request.wait();
    comm.barrier();
    if (comm.rank() == 0) result.overlapped_us = comm.wtime_us() - t0;
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const char* engines[] = {"threaded", "sharded"};

  std::vector<double> ranks_col, engine_col;
  std::vector<double> bcast_flat, bcast_hier, allreduce_flat, allreduce_hier;
  std::vector<double> barrier_host, barrier_hier, barrier_offload;
  std::vector<double> overlap_sum, overlap_actual;

  for (const char* engine : engines) {
    ::setenv("MADMPI_ENGINE", engine, 1);
    std::printf("\n### %s engine: hierarchical vs flat, %zu KiB payloads\n",
                engine, kPayloadBytes / 1024);
    std::printf("%6s %12s %12s %14s %14s %13s %13s %15s %12s %12s\n", "ranks",
                "bcast_flat", "bcast_hier", "allred_flat", "allred_hier",
                "barrier_host", "barrier_hier", "barrier_offload",
                "overlap_sum", "overlap_ok");
    for (const Shape& shape : kShapes) {
      ranks_col.push_back(shape.ranks);
      engine_col.push_back(std::string(engine) == "sharded" ? 1.0 : 0.0);
      if (std::string(engine) == "threaded" &&
          shape.ranks > kThreadedRankCap) {
        std::printf("%6d %12s (thread-per-rank capped at %d ranks)\n",
                    shape.ranks, "-", kThreadedRankCap);
        for (auto* column :
             {&bcast_flat, &bcast_hier, &allreduce_flat, &allreduce_hier,
              &barrier_host, &barrier_hier, &barrier_offload, &overlap_sum,
              &overlap_actual}) {
          column->push_back(0.0);
        }
        continue;
      }
      bcast_flat.push_back(time_bcast(shape, mpi::BcastAlgorithm::kBinomial));
      bcast_hier.push_back(
          time_bcast(shape, mpi::BcastAlgorithm::kHierarchical));
      allreduce_flat.push_back(
          time_allreduce(shape, mpi::AllreduceAlgorithm::kReduceBcast));
      allreduce_hier.push_back(
          time_allreduce(shape, mpi::AllreduceAlgorithm::kHierarchical));
      barrier_host.push_back(
          time_barrier(shape, mpi::BarrierAlgorithm::kDissemination));
      barrier_hier.push_back(
          time_barrier(shape, mpi::BarrierAlgorithm::kHierarchical));
      barrier_offload.push_back(
          time_barrier(shape, mpi::BarrierAlgorithm::kOffload));
      const OverlapResult overlap = time_overlap(shape);
      overlap_sum.push_back(overlap.blocking_sum_us);
      overlap_actual.push_back(overlap.overlapped_us);
      std::printf(
          "%6d %12.1f %12.1f %14.1f %14.1f %13.1f %13.1f %15.1f %12.1f "
          "%12.1f\n",
          shape.ranks, bcast_flat.back(), bcast_hier.back(),
          allreduce_flat.back(), allreduce_hier.back(), barrier_host.back(),
          barrier_hier.back(), barrier_offload.back(), overlap_sum.back(),
          overlap_actual.back());
    }
  }

  if (!json_path.empty()) {
    const std::vector<bench::JsonColumn> columns = {
        {"ranks", ranks_col},
        {"sharded", engine_col},
        {"bcast_flat_us", bcast_flat},
        {"bcast_hier_us", bcast_hier},
        {"allreduce_flat_us", allreduce_flat},
        {"allreduce_hier_us", allreduce_hier},
        {"barrier_host_us", barrier_host},
        {"barrier_hier_us", barrier_hier},
        {"barrier_offload_us", barrier_offload},
        {"overlap_blocking_sum_us", overlap_sum},
        {"overlap_actual_us", overlap_actual},
    };
    if (!bench::write_json_series(json_path, "ablation_collectives",
                                  columns)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
