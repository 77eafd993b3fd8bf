#include "mpi/coll_schedule.hpp"

#include <algorithm>

namespace madmpi::mpi {

namespace {

CollXfer whole(rank_t peer, CollBuf buf, std::size_t bytes) {
  return CollXfer{peer, buf, 0, bytes};
}

void add_step(CollSchedule& schedule, int tag, std::optional<CollXfer> recv,
              std::optional<CollXfer> send, int reduce_count = 0,
              std::size_t reduce_offset = 0) {
  CollStep step;
  step.tag = tag;
  step.recv = recv;
  if (send) step.sends.push_back(*send);
  step.reduce_count = reduce_count;
  step.reduce_offset = reduce_offset;
  schedule.steps.push_back(std::move(step));
}

/// Comm ranks rotated so `root` sits at position 0 (the flat trees).
std::vector<rank_t> rotated(int size, rank_t root) {
  std::vector<rank_t> members(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    members[static_cast<std::size_t>(i)] = (root + i) % size;
  }
  return members;
}

// --- Hierarchical trees ---------------------------------------------------
//
// level 1: one representative per cluster crosses the interconnect once
// level 2: island leaders fan out/in within each cluster (SCI/BIP)
// level 3: ranks fan out/in within each island (shared memory)
//
// Member lists come from coll_topo.cpp's re-rooted constructors, so data
// originates (bcast) or terminates (reduce) at the user's root without an
// extra hop. A rank outside a level's list has no edges there.

struct HierLists {
  std::vector<rank_t> reps, leaders, island;
};

HierLists hier_lists(const CollTopo& topo, rank_t rank, rank_t root) {
  const int root_island = topo.island_of[static_cast<std::size_t>(root)];
  const int root_cluster =
      topo.islands[static_cast<std::size_t>(root_island)].cluster;
  const int my_island = topo.island_of[static_cast<std::size_t>(rank)];
  const int my_cluster =
      topo.islands[static_cast<std::size_t>(my_island)].cluster;
  return HierLists{rep_list(topo, root_cluster, root),
                   cluster_leader_list(topo, my_cluster, root_island, root),
                   island_member_list(topo, my_island, root_island, root)};
}

void append_hier_bcast(CollSchedule& schedule, const CollTopo& topo,
                       rank_t rank, rank_t root, std::size_t bytes) {
  const HierLists lists = hier_lists(topo, rank, root);
  // The rep level fans out flat: rep count = cluster count (single
  // digits) and every hop pays a full serialization on the slowest wire,
  // so a depth-log tree would charge depth × wire time on its longest
  // path where the concurrent fan-out charges one.
  append_tree_bcast(schedule, linear_edges(lists.reps, rank), bytes,
                    kBcastTag);
  append_tree_bcast(schedule, binomial_edges(lists.leaders, rank), bytes,
                    kBcastTag);
  append_tree_bcast(schedule, binomial_edges(lists.island, rank), bytes,
                    kBcastTag);
}

void append_hier_reduce(CollSchedule& schedule, const CollTopo& topo,
                        rank_t rank, rank_t root, std::size_t elem,
                        int count) {
  // The mirror of the bcast, levels reversed, binomial at every level.
  const HierLists lists = hier_lists(topo, rank, root);
  append_tree_reduce(schedule, binomial_edges(lists.island, rank), elem,
                     count, kReduceTag);
  append_tree_reduce(schedule, binomial_edges(lists.leaders, rank), elem,
                     count, kReduceTag);
  append_tree_reduce(schedule, binomial_edges(lists.reps, rank), elem, count,
                     kReduceTag);
}

// --- Flat algorithms -------------------------------------------------------

void append_recursive_doubling(CollSchedule& schedule, rank_t rank, int size,
                               std::size_t elem, int count) {
  // Classic recursive doubling, with the standard pre/post fold for
  // non-power-of-two sizes: the `rem` lowest odd ranks fold their
  // contribution into their even neighbour, sit out the log2 rounds, and
  // get the result back at the end.
  const std::size_t bytes = elem * static_cast<std::size_t>(count);
  schedule.scratch_bytes = std::max(schedule.scratch_bytes, bytes);
  int pof2 = 1;
  while (pof2 * 2 <= size) pof2 *= 2;
  const int rem = size - pof2;
  const bool folded = rank < 2 * rem;

  int core_rank = rank - rem;  // rank within the power-of-two core, or -1
  if (folded) {
    if (rank % 2 == 1) {
      add_step(schedule, kReduceTag, std::nullopt,
               whole(rank - 1, CollBuf::kData, bytes));
      core_rank = -1;
    } else {
      add_step(schedule, kReduceTag, whole(rank + 1, CollBuf::kScratch, bytes),
               std::nullopt, count);
      core_rank = rank / 2;
    }
  }
  for (int mask = 1; core_rank >= 0 && mask < pof2; mask <<= 1) {
    const int partner_core = core_rank ^ mask;
    const rank_t partner =
        partner_core < rem ? partner_core * 2 : partner_core + rem;
    add_step(schedule, kReduceTag, whole(partner, CollBuf::kScratch, bytes),
             whole(partner, CollBuf::kData, bytes), count);
  }
  if (folded) {
    if (rank % 2 == 0) {
      add_step(schedule, kReduceTag, std::nullopt,
               whole(rank + 1, CollBuf::kData, bytes));
    } else {
      add_step(schedule, kReduceTag, whole(rank - 1, CollBuf::kData, bytes),
               std::nullopt);
    }
  }
}

void append_ring(CollSchedule& schedule, rank_t rank, int size,
                 std::size_t elem, int count) {
  // Bandwidth-optimal ring: a reduce-scatter pass (size-1 steps over
  // count/size chunks) followed by an allgather pass (size-1 steps). Each
  // rank sends 2*(size-1)/size of the data total, independent of size.
  std::vector<int> offsets(static_cast<std::size_t>(size) + 1, 0);
  for (int c = 0; c < size; ++c) {
    offsets[static_cast<std::size_t>(c) + 1] =
        offsets[static_cast<std::size_t>(c)] + count / size +
        (c < count % size ? 1 : 0);
  }
  auto elems = [&](int c) {
    return offsets[static_cast<std::size_t>(c) + 1] -
           offsets[static_cast<std::size_t>(c)];
  };
  auto offset = [&](int c) {
    return elem *
           static_cast<std::size_t>(offsets[static_cast<std::size_t>(c)]);
  };
  auto chunk = [&](int c, rank_t peer) {
    return CollXfer{peer, CollBuf::kData, offset(c),
                    elem * static_cast<std::size_t>(elems(c))};
  };
  schedule.scratch_bytes =
      std::max(schedule.scratch_bytes,
               elem * static_cast<std::size_t>(count / size + 1));
  const rank_t right = (rank + 1) % size;
  const rank_t left = (rank - 1 + size) % size;

  // Reduce-scatter: after step s, rank r holds the partial reduction of
  // chunk (r - s) from ranks r-s..r.
  for (int step = 0; step < size - 1; ++step) {
    const int send_chunk = (rank - step + size) % size;
    const int recv_chunk = (rank - step - 1 + size) % size;
    add_step(schedule, kReduceTag,
             whole(left, CollBuf::kScratch,
                   elem * static_cast<std::size_t>(elems(recv_chunk))),
             chunk(send_chunk, right), elems(recv_chunk), offset(recv_chunk));
  }
  // Allgather: circulate the fully-reduced chunks.
  for (int step = 0; step < size - 1; ++step) {
    const int send_chunk = (rank + 1 - step + size) % size;
    const int recv_chunk = (rank - step + size) % size;
    add_step(schedule, kReduceTag, chunk(recv_chunk, left),
             chunk(send_chunk, right));
  }
}

void append_dissemination(CollSchedule& schedule, rank_t rank, int size) {
  // log2(size) rounds of zero-byte exchanges.
  for (int mask = 1; mask < size; mask <<= 1) {
    add_step(schedule, kBarrierTag,
             whole((rank - mask + size) % size, CollBuf::kData, 0),
             whole((rank + mask) % size, CollBuf::kData, 0));
  }
}

}  // namespace

TreeEdges binomial_edges(const std::vector<rank_t>& members, rank_t rank) {
  TreeEdges edges;
  const auto it = std::find(members.begin(), members.end(), rank);
  if (it == members.end()) return edges;
  const int n = static_cast<int>(members.size());
  const int me = static_cast<int>(it - members.begin());
  // The lowest set bit of `me` names the parent; every lower bit that
  // stays inside the list names a child.
  int mask = 1;
  while (mask < n && !(me & mask)) mask <<= 1;
  if (mask < n) edges.parent = members[static_cast<std::size_t>(me & ~mask)];
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (me + mask < n) {
      edges.children.push_back(members[static_cast<std::size_t>(me + mask)]);
    }
  }
  return edges;
}

TreeEdges linear_edges(const std::vector<rank_t>& members, rank_t rank) {
  TreeEdges edges;
  if (members.empty()) return edges;
  if (rank == members.front()) {
    edges.children.assign(members.begin() + 1, members.end());
  } else if (std::find(members.begin(), members.end(), rank) !=
             members.end()) {
    edges.parent = members.front();
  }
  return edges;
}

void append_tree_bcast(CollSchedule& schedule, const TreeEdges& edges,
                       std::size_t bytes, int tag, bool one_child_per_step) {
  if (edges.parent != kInvalidRank) {
    add_step(schedule, tag, whole(edges.parent, CollBuf::kData, bytes),
             std::nullopt);
  }
  for (std::size_t i = 0; i < edges.children.size();) {
    CollStep step;
    step.tag = tag;
    do {
      step.sends.push_back(whole(edges.children[i++], CollBuf::kData, bytes));
    } while (!one_child_per_step && i < edges.children.size());
    schedule.steps.push_back(std::move(step));
  }
}

void append_tree_reduce(CollSchedule& schedule, const TreeEdges& edges,
                        std::size_t elem, int count, int tag) {
  const std::size_t bytes = elem * static_cast<std::size_t>(count);
  schedule.scratch_bytes = std::max(schedule.scratch_bytes, bytes);
  for (auto child = edges.children.rbegin(); child != edges.children.rend();
       ++child) {
    add_step(schedule, tag, whole(*child, CollBuf::kScratch, bytes),
             std::nullopt, count);
  }
  if (edges.parent != kInvalidRank) {
    add_step(schedule, tag, std::nullopt,
             whole(edges.parent, CollBuf::kData, bytes));
  }
}

CollSchedule bcast_schedule(BcastAlgorithm algorithm, const CollTopo& topo,
                            rank_t rank, int size, rank_t root,
                            std::size_t bytes) {
  CollSchedule schedule;
  if (algorithm == BcastAlgorithm::kLinear) {
    // The root sends to each rank in turn, ascending.
    std::vector<rank_t> members{root};
    for (rank_t r = 0; r < size; ++r) {
      if (r != root) members.push_back(r);
    }
    append_tree_bcast(schedule, linear_edges(members, rank), bytes, kBcastTag,
                      /*one_child_per_step=*/true);
  } else if (algorithm == BcastAlgorithm::kHierarchical ||
             algorithm == BcastAlgorithm::kOffload) {
    append_hier_bcast(schedule, topo, rank, root, bytes);
  } else {
    append_tree_bcast(schedule, binomial_edges(rotated(size, root), rank),
                      bytes, kBcastTag);
  }
  return schedule;
}

CollSchedule reduce_schedule(bool hierarchical, const CollTopo& topo,
                             rank_t rank, int size, rank_t root,
                             std::size_t elem, int count) {
  CollSchedule schedule;
  if (hierarchical) {
    append_hier_reduce(schedule, topo, rank, root, elem, count);
  } else {
    append_tree_reduce(schedule, binomial_edges(rotated(size, root), rank),
                       elem, count, kReduceTag);
  }
  return schedule;
}

CollSchedule allreduce_schedule(AllreduceAlgorithm algorithm,
                                BcastAlgorithm bcast, const CollTopo& topo,
                                rank_t rank, int size, std::size_t elem,
                                int count) {
  CollSchedule schedule;
  switch (algorithm) {
    case AllreduceAlgorithm::kRecursiveDoubling:
      append_recursive_doubling(schedule, rank, size, elem, count);
      break;
    case AllreduceAlgorithm::kRing:
      append_ring(schedule, rank, size, elem, count);
      break;
    case AllreduceAlgorithm::kHierarchical: {
      // Reduce to the natural root (cluster 0's rep), then release along
      // the same trees.
      const rank_t root = topo.rep_of_cluster(0);
      append_hier_reduce(schedule, topo, rank, root, elem, count);
      append_hier_bcast(schedule, topo, rank, root,
                        elem * static_cast<std::size_t>(count));
      break;
    }
    default: {
      schedule = reduce_schedule(false, topo, rank, size, 0, elem, count);
      CollSchedule release = bcast_schedule(
          bcast, topo, rank, size, 0, elem * static_cast<std::size_t>(count));
      schedule.steps.insert(schedule.steps.end(), release.steps.begin(),
                            release.steps.end());
      break;
    }
  }
  return schedule;
}

CollSchedule barrier_schedule(BarrierAlgorithm algorithm, const CollTopo& topo,
                              rank_t rank, int size) {
  CollSchedule schedule;
  if (algorithm == BarrierAlgorithm::kHierarchical ||
      algorithm == BarrierAlgorithm::kOffload) {
    // Zero-byte fan-in to cluster 0's rep, zero-byte release back out.
    const rank_t root = topo.rep_of_cluster(0);
    append_hier_reduce(schedule, topo, rank, root, 0, 0);
    append_hier_bcast(schedule, topo, rank, root, 0);
  } else {
    append_dissemination(schedule, rank, size);
  }
  return schedule;
}

}  // namespace madmpi::mpi
