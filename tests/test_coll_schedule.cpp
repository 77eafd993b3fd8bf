// Collective schedules as pure data: every rank's steps, for every
// algorithm both runners run, must pair up with every other rank's — each
// sender's sends to a peer are that peer's receives from the sender, in
// order, tag and byte count — and stepping all ranks round by round must
// run to completion. Nothing is sent; the builders are pure functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mpi/coll_schedule.hpp"

namespace madmpi {
namespace {

using mpi::AllreduceAlgorithm;
using mpi::BarrierAlgorithm;
using mpi::BcastAlgorithm;
using mpi::CollSchedule;
using mpi::CollStep;
using mpi::CollTopo;

constexpr std::size_t kElem = 8;

/// The digest build_coll_topo() makes for misaligned_meta_cluster()
/// (test_coll_engine.cpp): `ranks` spread over `clusters` clusters of
/// `ranks_per`-rank nodes, node-major, the last node of a cluster taking
/// the remainder.
CollTopo misaligned_topo(int ranks, int clusters, int ranks_per) {
  CollTopo topo;
  rank_t next = 0;
  for (int c = 0; c < clusters; ++c) {
    topo.clusters.emplace_back();
    int remaining = ranks / clusters + (c < ranks % clusters ? 1 : 0);
    while (remaining > 0) {
      CollTopo::Island island;
      island.cluster = c;
      for (int i = 0; i < std::min(ranks_per, remaining); ++i) {
        island.members.push_back(next++);
        topo.island_of.push_back(static_cast<int>(topo.islands.size()));
      }
      remaining -= static_cast<int>(island.members.size());
      topo.clusters.back().push_back(static_cast<int>(topo.islands.size()));
      topo.islands.push_back(std::move(island));
    }
  }
  return topo;
}

/// meta_cluster() of test_coll_engine.cpp: aligned `nodes_per` nodes of
/// `ranks_per` ranks per cluster.
CollTopo meta_topo(int clusters, int nodes_per, int ranks_per) {
  return misaligned_topo(clusters * nodes_per * ranks_per, clusters,
                         ranks_per);
}

/// Every rank's sends to `to` equal `to`'s receives from it, in order.
void expect_pairs(const std::vector<CollSchedule>& all,
                  const std::string& what) {
  using Msg = std::pair<int, std::size_t>;  // (tag, bytes)
  std::map<std::pair<rank_t, rank_t>, std::vector<Msg>> sent, received;
  for (rank_t r = 0; r < static_cast<rank_t>(all.size()); ++r) {
    for (const CollStep& step : all[static_cast<std::size_t>(r)].steps) {
      if (step.recv) {
        received[{step.recv->peer, r}].push_back({step.tag, step.recv->bytes});
      }
      for (const auto& send : step.sends) {
        ASSERT_GE(send.peer, 0) << what;
        ASSERT_LT(send.peer, static_cast<rank_t>(all.size())) << what;
        ASSERT_NE(send.peer, r) << what;
        sent[{r, send.peer}].push_back({step.tag, send.bytes});
      }
    }
  }
  EXPECT_EQ(sent, received) << what;
}

/// Step every rank round by round under rendezvous semantics (a send
/// completes only against the destination's current step's receive): the
/// strictest the runners see, so completion here implies completion
/// under eager sends and under the nonblocking runner's merged send runs.
void expect_completes(const std::vector<CollSchedule>& all,
                      const std::string& what) {
  const std::size_t n = all.size();
  std::vector<std::size_t> at(n, 0);
  std::vector<bool> recv_done(n);
  std::vector<std::vector<bool>> sends_done(n);
  auto reset = [&](std::size_t r) {
    recv_done[r] = false;
    sends_done[r].assign(at[r] < all[r].steps.size()
                             ? all[r].steps[at[r]].sends.size()
                             : 0,
                         false);
  };
  for (std::size_t r = 0; r < n; ++r) reset(r);
  for (;;) {
    bool finished = true;
    bool progress = false;
    for (std::size_t s = 0; s < n; ++s) {
      if (at[s] >= all[s].steps.size()) continue;
      finished = false;
      const CollStep& step = all[s].steps[at[s]];
      for (std::size_t i = 0; i < step.sends.size(); ++i) {
        if (sends_done[s][i]) continue;
        const auto d = static_cast<std::size_t>(step.sends[i].peer);
        if (at[d] >= all[d].steps.size() || recv_done[d]) continue;
        const CollStep& peer = all[d].steps[at[d]];
        if (peer.recv && peer.recv->peer == static_cast<rank_t>(s) &&
            peer.tag == step.tag) {
          sends_done[s][i] = true;
          recv_done[d] = true;
          progress = true;
        }
      }
    }
    if (finished) return;
    for (std::size_t r = 0; r < n; ++r) {
      if (at[r] >= all[r].steps.size()) continue;
      const CollStep& step = all[r].steps[at[r]];
      const bool done =
          (!step.recv || recv_done[r]) &&
          std::all_of(sends_done[r].begin(), sends_done[r].end(),
                      [](bool b) { return b; });
      if (done) {
        ++at[r];
        reset(r);
        progress = true;
      }
    }
    ASSERT_TRUE(progress) << what << ": schedules deadlock";
  }
}

template <typename Build>
void check(int n, const std::string& what, Build build) {
  std::vector<CollSchedule> all;
  for (rank_t r = 0; r < n; ++r) all.push_back(build(r));
  expect_pairs(all, what);
  expect_completes(all, what);
}

TEST(CollSchedule, FlatAlgorithmsPairUpAndComplete) {
  const CollTopo flat;  // the flat builders never read the digest
  for (int n = 1; n <= 40; ++n) {
    const std::string size = " n=" + std::to_string(n);
    for (rank_t root = 0; root < n; ++root) {
      const std::string at = size + " root=" + std::to_string(root);
      for (BcastAlgorithm algorithm :
           {BcastAlgorithm::kBinomial, BcastAlgorithm::kLinear}) {
        check(n, std::string("bcast ") + algorithm_name(algorithm) + at,
              [&](rank_t r) {
                return bcast_schedule(algorithm, flat, r, n, root, 100);
              });
      }
      check(n, "reduce" + at, [&](rank_t r) {
        return reduce_schedule(false, flat, r, n, root, kElem, 5);
      });
    }
    for (int count : {1, n, n + 3, 3 * n + 1}) {
      const std::string at = size + " count=" + std::to_string(count);
      for (AllreduceAlgorithm algorithm :
           {AllreduceAlgorithm::kRecursiveDoubling, AllreduceAlgorithm::kRing,
            AllreduceAlgorithm::kReduceBcast}) {
        check(n, std::string("allreduce ") + algorithm_name(algorithm) + at,
              [&](rank_t r) {
                return allreduce_schedule(algorithm, BcastAlgorithm::kLinear,
                                          flat, r, n, kElem, count);
              });
      }
    }
    check(n, "barrier dissemination" + size, [&](rank_t r) {
      return barrier_schedule(BarrierAlgorithm::kDissemination, flat, r, n);
    });
  }
}

TEST(CollSchedule, HierarchicalAlgorithmsPairUpAndComplete) {
  const std::vector<std::tuple<std::string, CollTopo>> shapes = {
      {"meta 3x2x2", meta_topo(3, 2, 2)},
      {"meta 2x2x2", meta_topo(2, 2, 2)},
      {"misaligned 16/2/3", misaligned_topo(16, 2, 3)},
      {"misaligned 64/3/5", misaligned_topo(64, 3, 5)},
      {"misaligned 256/3/6", misaligned_topo(256, 3, 6)},
  };
  for (const auto& [name, topo] : shapes) {
    const int n = static_cast<int>(topo.island_of.size());
    for (rank_t root = 0; root < n; ++root) {
      const std::string at = " " + name + " root=" + std::to_string(root);
      check(n, "bcast hier" + at, [&](rank_t r) {
        return bcast_schedule(BcastAlgorithm::kHierarchical, topo, r, n, root,
                              100);
      });
      check(n, "reduce hier" + at, [&](rank_t r) {
        return reduce_schedule(true, topo, r, n, root, kElem, 5);
      });
    }
    check(n, "allreduce hier " + name, [&](rank_t r) {
      return allreduce_schedule(AllreduceAlgorithm::kHierarchical,
                                BcastAlgorithm::kBinomial, topo, r, n, kElem,
                                7);
    });
    check(n, "allreduce reduce_bcast over hier bcast " + name, [&](rank_t r) {
      return allreduce_schedule(AllreduceAlgorithm::kReduceBcast,
                                BcastAlgorithm::kHierarchical, topo, r, n,
                                kElem, 7);
    });
    check(n, "barrier hier " + name, [&](rank_t r) {
      return barrier_schedule(BarrierAlgorithm::kHierarchical, topo, r, n);
    });
  }
}

TEST(CollSchedule, TreeShapesMatchTheBlockingOrder) {
  // bcast children largest subtree first; reduce receives smallest first.
  const std::vector<rank_t> members{4, 0, 1, 2, 3, 5, 6};
  const mpi::TreeEdges root = mpi::binomial_edges(members, 4);
  EXPECT_EQ(root.parent, kInvalidRank);
  EXPECT_EQ(root.children, (std::vector<rank_t>{3, 1, 0}));
  const mpi::TreeEdges inner = mpi::binomial_edges(members, 3);
  EXPECT_EQ(inner.parent, 4);
  EXPECT_EQ(inner.children, (std::vector<rank_t>{6, 5}));
  EXPECT_EQ(mpi::binomial_edges(members, 9).parent, kInvalidRank);

  CollSchedule reduce;
  mpi::append_tree_reduce(reduce, root, kElem, 2, mpi::kReduceTag);
  ASSERT_EQ(reduce.steps.size(), 3u);
  EXPECT_EQ(reduce.steps[0].recv->peer, 0);
  EXPECT_EQ(reduce.steps[2].recv->peer, 3);
  EXPECT_EQ(reduce.steps[0].reduce_count, 2);
  EXPECT_EQ(reduce.scratch_bytes, 2 * kElem);

  // The flat linear bcast's root sends one child per step, ascending; the
  // hierarchical rep level fans out in one step.
  const CollSchedule linear =
      bcast_schedule(BcastAlgorithm::kLinear, CollTopo{}, 2, 5, 2, 64);
  ASSERT_EQ(linear.steps.size(), 4u);
  EXPECT_EQ(linear.steps[0].sends.front().peer, 0);
  EXPECT_EQ(linear.steps[3].sends.front().peer, 4);
  const CollTopo topo = misaligned_topo(16, 2, 3);
  const CollSchedule hier =
      bcast_schedule(BcastAlgorithm::kHierarchical, topo, 0, 16, 0, 64);
  ASSERT_FALSE(hier.steps.empty());
  EXPECT_EQ(hier.steps[0].sends.size(), 1u);  // one other cluster rep
  EXPECT_EQ(hier.steps[0].sends.front().peer, topo.rep_of_cluster(1));
}

}  // namespace
}  // namespace madmpi
