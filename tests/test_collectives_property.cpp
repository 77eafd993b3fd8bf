// Property tests: every collective, random inputs, random communicator
// shapes, verified against a sequential reference computed from the same
// seed — across all three collective algorithm configurations.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/session.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;

/// All ranks regenerate everyone's contribution from the shared seed, so
/// each can compute the expected result locally.
std::vector<std::int64_t> contribution(int rank, int count,
                                       std::uint64_t seed) {
  Rng rng(seed * 1315423911u + static_cast<std::uint64_t>(rank));
  std::vector<std::int64_t> out(static_cast<std::size_t>(count));
  for (auto& v : out) {
    v = static_cast<std::int64_t>(rng.next_range(0, 1000)) - 500;
  }
  return out;
}

struct PropertyCase {
  int ranks;
  int count;
  std::uint64_t seed;
  mpi::AllreduceAlgorithm algorithm;
};

class CollectiveProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(CollectiveProperty, AllreduceSumMinMaxAgainstReference) {
  const auto& param = GetParam();
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(param.ranks, sim::Protocol::kBip);
  Session session(std::move(options));
  session.run([&param](Comm comm) {
    mpi::CollectiveConfig config;
    config.allreduce = param.algorithm;
    comm.set_collective_config(config);

    const auto mine = contribution(comm.rank(), param.count, param.seed);

    // Sequential reference over all ranks' regenerated contributions.
    std::vector<std::int64_t> expected_sum(mine.size(), 0);
    std::vector<std::int64_t> expected_min(
        mine.size(), std::numeric_limits<std::int64_t>::max());
    std::vector<std::int64_t> expected_max(
        mine.size(), std::numeric_limits<std::int64_t>::min());
    for (int r = 0; r < comm.size(); ++r) {
      const auto theirs = contribution(r, param.count, param.seed);
      for (std::size_t i = 0; i < theirs.size(); ++i) {
        expected_sum[i] += theirs[i];
        expected_min[i] = std::min(expected_min[i], theirs[i]);
        expected_max[i] = std::max(expected_max[i], theirs[i]);
      }
    }

    std::vector<std::int64_t> got(mine.size());
    comm.allreduce(mine.data(), got.data(), param.count, Datatype::int64(),
                   mpi::Op::sum());
    ASSERT_EQ(got, expected_sum);
    comm.allreduce(mine.data(), got.data(), param.count, Datatype::int64(),
                   mpi::Op::min());
    ASSERT_EQ(got, expected_min);
    comm.allreduce(mine.data(), got.data(), param.count, Datatype::int64(),
                   mpi::Op::max());
    ASSERT_EQ(got, expected_max);
  });
}

TEST_P(CollectiveProperty, GatherScatterAllgatherAgainstReference) {
  const auto& param = GetParam();
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(param.ranks, sim::Protocol::kSisci);
  Session session(std::move(options));
  session.run([&param](Comm comm) {
    const int n = comm.size();
    const auto mine = contribution(comm.rank(), param.count, param.seed);

    std::vector<std::int64_t> everyone;
    for (int r = 0; r < n; ++r) {
      const auto theirs = contribution(r, param.count, param.seed);
      everyone.insert(everyone.end(), theirs.begin(), theirs.end());
    }

    // allgather == concatenation.
    std::vector<std::int64_t> gathered(everyone.size(), -1);
    comm.allgather(mine.data(), param.count, Datatype::int64(),
                   gathered.data(), param.count, Datatype::int64());
    ASSERT_EQ(gathered, everyone);

    // gather to a rotating root.
    const int root = static_cast<int>(param.seed % n);
    std::vector<std::int64_t> rooted(
        comm.rank() == root ? everyone.size() : 0);
    comm.gather(mine.data(), param.count, Datatype::int64(),
                comm.rank() == root ? rooted.data() : nullptr, param.count,
                Datatype::int64(), root);
    if (comm.rank() == root) {
      ASSERT_EQ(rooted, everyone);
    }

    // scatter back: each rank must recover its own contribution.
    std::vector<std::int64_t> back(static_cast<std::size_t>(param.count),
                                   -1);
    comm.scatter(comm.rank() == root ? everyone.data() : nullptr,
                 param.count, Datatype::int64(), back.data(), param.count,
                 Datatype::int64(), root);
    ASSERT_EQ(back, mine);
  });
}

TEST_P(CollectiveProperty, ScanAgainstReference) {
  const auto& param = GetParam();
  Session::Options options;
  options.cluster =
      sim::ClusterSpec::homogeneous(param.ranks, sim::Protocol::kTcp);
  Session session(std::move(options));
  session.run([&param](Comm comm) {
    const auto mine = contribution(comm.rank(), param.count, param.seed);
    std::vector<std::int64_t> expected(mine.size(), 0);
    for (int r = 0; r <= comm.rank(); ++r) {
      const auto theirs = contribution(r, param.count, param.seed);
      for (std::size_t i = 0; i < theirs.size(); ++i) {
        expected[i] += theirs[i];
      }
    }
    std::vector<std::int64_t> got(mine.size(), -1);
    comm.scan(mine.data(), got.data(), param.count, Datatype::int64(),
              mpi::Op::sum());
    ASSERT_EQ(got, expected);
  });
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  Rng rng(20260707);
  const mpi::AllreduceAlgorithm algos[] = {
      mpi::AllreduceAlgorithm::kReduceBcast,
      mpi::AllreduceAlgorithm::kRecursiveDoubling,
      mpi::AllreduceAlgorithm::kRing,
  };
  for (int i = 0; i < 12; ++i) {
    PropertyCase c;
    c.ranks = static_cast<int>(rng.next_range(2, 9));
    c.count = static_cast<int>(rng.next_range(1, 600));
    c.seed = rng.next_u64() % 100000;
    c.algorithm = algos[i % 3];
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, CollectiveProperty,
                         ::testing::ValuesIn(property_cases()),
                         [](const auto& info) {
                           std::string name = "r";
                           name += std::to_string(info.param.ranks);
                           name += "_c";
                           name += std::to_string(info.param.count);
                           name += "_s";
                           name += std::to_string(info.param.seed);
                           name += "_a";
                           name += std::to_string(
                               static_cast<int>(info.param.algorithm));
                           return name;
                         });

}  // namespace
}  // namespace madmpi
