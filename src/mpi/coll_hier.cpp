// Collective algorithm selection and the modeled NIC offload.
//
// The flat MPICH algorithms treat every rank pair as equal; on a
// Madeleine-style multi-protocol cluster that sends the same byte across
// TCP many times. The hierarchical algorithms (coll_schedule.cpp) walk the
// topology digest instead; this file decides per call which algorithm
// runs, and runs the offloaded barrier/bcast, whose host halves are
// schedules too.
//
// kAuto resolution order: explicit config < tuner decision table < static
// heuristic. On a single-island topology the heuristic resolves to the
// historical flat algorithms, keeping existing sessions bit-identical.
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "mpi/coll_offload.hpp"
#include "mpi/coll_schedule.hpp"
#include "mpi/comm.hpp"
#include "mpi/comm_shared.hpp"
#include "sim/cost_model.hpp"

namespace madmpi::mpi {

namespace {

int tree_depth(int n) {
  int depth = 0;
  while ((1 << depth) < n) ++depth;
  return depth;
}

std::string env_lower(const char* name) {
  const char* value = std::getenv(name);
  if (!value) return {};
  std::string out(value);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

}  // namespace

// --- Names, env defaults, decision-table text form ----------------------

const char* algorithm_name(AllreduceAlgorithm a) {
  switch (a) {
    case AllreduceAlgorithm::kReduceBcast: return "reduce_bcast";
    case AllreduceAlgorithm::kRecursiveDoubling: return "rdbl";
    case AllreduceAlgorithm::kRing: return "ring";
    case AllreduceAlgorithm::kHierarchical: return "hier";
    case AllreduceAlgorithm::kAuto: return "auto";
  }
  return "?";
}

const char* algorithm_name(BcastAlgorithm a) {
  switch (a) {
    case BcastAlgorithm::kBinomial: return "binomial";
    case BcastAlgorithm::kLinear: return "linear";
    case BcastAlgorithm::kHierarchical: return "hier";
    case BcastAlgorithm::kOffload: return "offload";
    case BcastAlgorithm::kAuto: return "auto";
  }
  return "?";
}

const char* algorithm_name(BarrierAlgorithm a) {
  switch (a) {
    case BarrierAlgorithm::kDissemination: return "dissemination";
    case BarrierAlgorithm::kHierarchical: return "hier";
    case BarrierAlgorithm::kOffload: return "offload";
    case BarrierAlgorithm::kAuto: return "auto";
  }
  return "?";
}

AllreduceAlgorithm allreduce_algorithm_default() {
  const std::string v = env_lower("MADMPI_COLL_ALLREDUCE");
  if (v == "reduce_bcast") return AllreduceAlgorithm::kReduceBcast;
  if (v == "rdbl") return AllreduceAlgorithm::kRecursiveDoubling;
  if (v == "ring") return AllreduceAlgorithm::kRing;
  if (v == "hier") return AllreduceAlgorithm::kHierarchical;
  return AllreduceAlgorithm::kAuto;
}

BcastAlgorithm bcast_algorithm_default() {
  const std::string v = env_lower("MADMPI_COLL_BCAST");
  if (v == "binomial") return BcastAlgorithm::kBinomial;
  if (v == "linear") return BcastAlgorithm::kLinear;
  if (v == "hier") return BcastAlgorithm::kHierarchical;
  if (v == "offload") return BcastAlgorithm::kOffload;
  return BcastAlgorithm::kAuto;
}

BarrierAlgorithm barrier_algorithm_default() {
  const std::string v = env_lower("MADMPI_COLL_BARRIER");
  if (v == "dissemination") return BarrierAlgorithm::kDissemination;
  if (v == "hier") return BarrierAlgorithm::kHierarchical;
  if (v == "offload") return BarrierAlgorithm::kOffload;
  return BarrierAlgorithm::kAuto;
}

bool coll_offload_default() {
  const std::string v = env_lower("MADMPI_COLL_OFFLOAD");
  return !(v == "0" || v == "false" || v == "off" || v == "no");
}

std::string CollDecisionTable::serialize() const {
  if (!valid) return "untuned";
  std::string out;
  out += "bcast=";
  out += algorithm_name(bcast_small);
  out += "<";
  out += std::to_string(switch_bytes);
  out += "<=";
  out += algorithm_name(bcast_large);
  out += " allreduce=";
  out += algorithm_name(allreduce_small);
  out += "<";
  out += std::to_string(switch_bytes);
  out += "<=";
  out += algorithm_name(allreduce_large);
  out += " barrier=";
  out += algorithm_name(barrier);
  return out;
}

// --- Topology digest and kAuto resolution -------------------------------

const CollTopo& Comm::coll_topo() const {
  std::lock_guard<std::mutex> lock(shared_->seq_mutex);
  if (!shared_->topo) {
    shared_->topo = build_coll_topo(*shared_->runtime, shared_->group);
  }
  return *shared_->topo;
}

BcastAlgorithm Comm::resolve_bcast(std::size_t bytes) const {
  const CollectiveConfig config = collective_config();
  // FT mode routes through the survivable binomial tree before any
  // selector applies — the explicit flat fallback the FT guard test pins.
  if (config.fault_tolerant) return BcastAlgorithm::kBinomial;
  const CollTopo& topo = coll_topo();
  BcastAlgorithm algorithm = config.bcast;
  if (algorithm == BcastAlgorithm::kAuto) {
    const CollDecisionTable table = shared_->runtime->coll_decision_table();
    if (table.valid) {
      algorithm = bytes < table.switch_bytes ? table.bcast_small
                                             : table.bcast_large;
    } else {
      algorithm = topo.single_island() ? BcastAlgorithm::kBinomial
                                       : BcastAlgorithm::kHierarchical;
    }
  }
  // Degrade gracefully: the offload needs a homogeneous offload-capable
  // leader fabric, and the hierarchy needs more than one island.
  if (algorithm == BcastAlgorithm::kOffload &&
      !(topo.offload_capable && config.offload)) {
    algorithm = BcastAlgorithm::kHierarchical;
  }
  if (algorithm == BcastAlgorithm::kHierarchical && topo.single_island()) {
    algorithm = BcastAlgorithm::kBinomial;
  }
  return algorithm;
}

AllreduceAlgorithm Comm::resolve_allreduce(std::size_t bytes,
                                           int count) const {
  const CollectiveConfig config = collective_config();
  if (config.fault_tolerant) return AllreduceAlgorithm::kReduceBcast;
  const CollTopo& topo = coll_topo();
  AllreduceAlgorithm algorithm = config.allreduce;
  if (algorithm == AllreduceAlgorithm::kAuto) {
    const CollDecisionTable table = shared_->runtime->coll_decision_table();
    if (table.valid) {
      algorithm = bytes < table.switch_bytes ? table.allreduce_small
                                             : table.allreduce_large;
    } else {
      algorithm = topo.single_island() ? AllreduceAlgorithm::kReduceBcast
                                       : AllreduceAlgorithm::kHierarchical;
    }
  }
  if (algorithm == AllreduceAlgorithm::kHierarchical &&
      topo.single_island()) {
    algorithm = AllreduceAlgorithm::kReduceBcast;
  }
  // The ring needs at least one element per rank to be worthwhile (and
  // correct chunking); degrade gracefully for tiny payloads.
  if (algorithm == AllreduceAlgorithm::kRing && count < size()) {
    algorithm = AllreduceAlgorithm::kRecursiveDoubling;
  }
  return algorithm;
}

BarrierAlgorithm Comm::resolve_barrier() const {
  const CollectiveConfig config = collective_config();
  if (config.fault_tolerant) return BarrierAlgorithm::kDissemination;
  const CollTopo& topo = coll_topo();
  BarrierAlgorithm algorithm = config.barrier;
  if (algorithm == BarrierAlgorithm::kAuto) {
    const CollDecisionTable table = shared_->runtime->coll_decision_table();
    if (table.valid) {
      algorithm = table.barrier;
    } else if (topo.single_island()) {
      algorithm = BarrierAlgorithm::kDissemination;
    } else if (topo.offload_capable && config.offload) {
      algorithm = BarrierAlgorithm::kOffload;
    } else {
      algorithm = BarrierAlgorithm::kHierarchical;
    }
  }
  if (algorithm == BarrierAlgorithm::kOffload &&
      !(topo.offload_capable && config.offload)) {
    algorithm = BarrierAlgorithm::kHierarchical;
  }
  if (algorithm == BarrierAlgorithm::kHierarchical && topo.single_island()) {
    algorithm = BarrierAlgorithm::kDissemination;
  }
  return algorithm;
}

// --- Modeled NIC offload ------------------------------------------------

void Comm::offload_barrier() {
  const CollTopo& topo = coll_topo();
  const std::uint64_t key = shared_->next_offload_key(rank_);
  const int my_island = topo.island_of[static_cast<std::size_t>(rank_)];
  const int leaders = static_cast<int>(topo.islands.size());

  // Host side: island fan-in to the leader, like the hierarchical
  // barrier's innermost level.
  const TreeEdges island = binomial_edges(
      topo.islands[static_cast<std::size_t>(my_island)].members, rank_);
  CollSchedule fan_in;
  append_tree_reduce(fan_in, island, 0, 0, kBarrierTag);
  run_schedule(fan_in);

  if (rank_ == topo.leader_of_island(my_island)) {
    // NIC side: post the combine descriptor, let the modeled firmware
    // tree run (up and down: 2 * depth hops), land the notification.
    sim::VirtualClock& clock = my_node().clock();
    clock.advance(topo.offload_post_us);
    const usec_t tree_us =
        2.0 * tree_depth(leaders) * topo.offload_hop_us +
        topo.offload_notify_us;
    const usec_t done = shared_->runtime->coll_offload_board().barrier(
        key, leaders, clock.now(), tree_us);
    clock.sync_to(done);
  }

  // Release within the island.
  CollSchedule release;
  append_tree_bcast(release, island, 0, kBarrierTag);
  run_schedule(release);
}

void Comm::offload_bcast(std::byte* wire, std::size_t bytes, rank_t root) {
  const CollTopo& topo = coll_topo();
  const std::uint64_t key = shared_->next_offload_key(rank_);
  const int root_island = topo.island_of[static_cast<std::size_t>(root)];
  const int my_island = topo.island_of[static_cast<std::size_t>(rank_)];
  const int leaders = static_cast<int>(topo.islands.size());

  // The root stands in for its island's leader (no staging hop), so the
  // NIC tree spans {root} ∪ {other islands' leaders}.
  const rank_t my_leader = my_island == root_island
                               ? root
                               : topo.leader_of_island(my_island);
  sim::VirtualClock& clock = my_node().clock();
  if (rank_ == my_leader) {
    if (rank_ == root) {
      // DMA the payload into the NIC and fire the forward tree. The root
      // returns immediately — a bcast is not a barrier.
      clock.advance(topo.offload_post_us +
                    static_cast<double>(bytes) / topo.offload_bytes_per_us);
      shared_->runtime->coll_offload_board().bcast_put(key, leaders,
                                                       clock.now(), wire,
                                                       bytes);
    } else {
      // Leaves complete at max(own post, root post + pipeline latency):
      // they never wait on sibling leaves.
      clock.advance(topo.offload_post_us);
      const usec_t tree_us =
          tree_depth(leaders) * topo.offload_hop_us +
          static_cast<double>(bytes) / topo.offload_bytes_per_us +
          topo.offload_notify_us;
      const usec_t done = shared_->runtime->coll_offload_board().bcast_get(
          key, leaders, clock.now(), tree_us, wire, bytes);
      clock.sync_to(done);
      clock.advance(static_cast<double>(bytes) * sim::kHostCopyUsPerByte);
    }
  }

  // Host side: release within the island (root's island re-rooted at it).
  CollSchedule release;
  append_tree_bcast(
      release,
      binomial_edges(island_member_list(topo, my_island, root_island, root),
                     rank_),
      bytes, kBcastTag);
  run_schedule(release, wire);
}

}  // namespace madmpi::mpi
