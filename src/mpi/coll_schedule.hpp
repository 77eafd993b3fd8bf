// Collective schedules: bcast, reduce, allreduce and barrier written once.
//
// Every algorithm is a builder of one rank's ordered step list. A step is
// an optional receive plus any sends, all posted together on the
// collective context, followed — once they completed — by an optional
// local reduction of the received operand into the payload. Two runners
// walk the same steps (paper Figure 1: the generic layer builds each
// collective once, over point-to-point):
//
//   blocking     Comm::run_schedule (collectives.cpp): per step, the
//                coll_recv / coll_send_multi / coll_sendrecv call, then
//                op.apply plus the host-copy charge;
//   nonblocking  IcollSchedule (coll_sched.cpp): the same steps over
//                coll_irecv / coll_isend, advanced from completion hooks.
//
// The builders are pure functions of (algorithm, rank, size, topology,
// payload geometry), so the schedule-pairing test can check every rank's
// steps against every other rank's without running anything.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mpi/coll_topo.hpp"
#include "mpi/coll_types.hpp"
#include "mpi/types.hpp"

namespace madmpi::mpi {

// Tags of the blocking collectives on the collective context (the
// nonblocking runner replaces them with its per-instance tag). Blocking
// collectives on one communicator are serialized, so reuse is safe.
constexpr int kBarrierTag = 1;
constexpr int kBcastTag = 2;
constexpr int kReduceTag = 3;

/// The buffer a transfer moves: the collective's payload (bcast wire,
/// reduction accumulator) or the schedule's scratch area (the incoming
/// operand of a reduction step).
enum class CollBuf : std::uint8_t { kData, kScratch };

struct CollXfer {
  rank_t peer = kInvalidRank;
  CollBuf buf = CollBuf::kData;
  std::size_t offset = 0;  // bytes into `buf`
  std::size_t bytes = 0;
};

struct CollStep {
  int tag = 0;
  std::optional<CollXfer> recv;
  /// Several sends only on a send-only step, and then all of the same
  /// bytes (a tree node's fan-out); a step with a receive sends at most
  /// once (an exchange).
  std::vector<CollXfer> sends;
  /// After the transfers: data[reduce_offset..] = scratch op data, over
  /// `reduce_count` elements. 0 = no reduction.
  int reduce_count = 0;
  std::size_t reduce_offset = 0;
};

struct CollSchedule {
  std::vector<CollStep> steps;
  std::size_t scratch_bytes = 0;
};

/// A rank's place in a tree over an explicit member list (members[0] is
/// the root). Children are listed largest subtree first; a rank absent
/// from the list has no edges.
struct TreeEdges {
  rank_t parent = kInvalidRank;
  std::vector<rank_t> children;
};

TreeEdges binomial_edges(const std::vector<rank_t>& members, rank_t rank);
/// Flat fan-out from members[0].
TreeEdges linear_edges(const std::vector<rank_t>& members, rank_t rank);

/// Tree phases. bcast: receive from the parent, then one step sending to
/// every child (or one step per child when `one_child_per_step`). reduce:
/// receive from each child, smallest subtree first, combining `count`
/// elements of `elem` bytes after each, then send to the parent.
void append_tree_bcast(CollSchedule& schedule, const TreeEdges& edges,
                       std::size_t bytes, int tag,
                       bool one_child_per_step = false);
void append_tree_reduce(CollSchedule& schedule, const TreeEdges& edges,
                        std::size_t elem, int count, int tag);

/// One rank's whole collective. `size` is the communicator size; the
/// hierarchical algorithms read `topo`, whose ranks must match it.
/// kOffload is not a schedule (the NIC board is a blocking rendezvous):
/// bcast_schedule and barrier_schedule build the hierarchical trees for
/// it. allreduce's kReduceBcast releases along `bcast`'s tree.
CollSchedule bcast_schedule(BcastAlgorithm algorithm, const CollTopo& topo,
                            rank_t rank, int size, rank_t root,
                            std::size_t bytes);
CollSchedule reduce_schedule(bool hierarchical, const CollTopo& topo,
                             rank_t rank, int size, rank_t root,
                             std::size_t elem, int count);
CollSchedule allreduce_schedule(AllreduceAlgorithm algorithm,
                                BcastAlgorithm bcast, const CollTopo& topo,
                                rank_t rank, int size, std::size_t elem,
                                int count);
CollSchedule barrier_schedule(BarrierAlgorithm algorithm, const CollTopo& topo,
                              rank_t rank, int size);

}  // namespace madmpi::mpi
