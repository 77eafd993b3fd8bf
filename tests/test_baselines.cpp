// Baseline native devices: correctness of each comparator implementation
// and the relative-performance claims of the paper's figures.
#include <gtest/gtest.h>

#include <numeric>

#include "baselines/native_device.hpp"
#include "core/pingpong.hpp"
#include "core/session.hpp"

namespace madmpi {
namespace {

using baselines::NativeDevice;
using core::Session;
using mpi::Comm;
using mpi::Datatype;

std::unique_ptr<Session> baseline_session(const std::string& profile,
                                          sim::Protocol protocol,
                                          int nodes = 2) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(nodes, protocol);
  options.internode_factory =
      [profile](Session& session) -> std::unique_ptr<core::ManagedDevice> {
    return std::make_unique<NativeDevice>(
        baselines::profile_by_name(profile), session.fabric(),
        session.cluster(), session.directory());
  };
  return std::make_unique<Session>(std::move(options));
}

struct BaselineCase {
  const char* profile;
  sim::Protocol protocol;
};

class BaselineCorrectness : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineCorrectness, EagerAndRendezvousRoundTrips) {
  const auto& param = GetParam();
  auto session = baseline_session(param.profile, param.protocol);
  session->run([](Comm comm) {
    const int peer = 1 - comm.rank();
    for (std::size_t bytes : {std::size_t{1}, std::size_t{500},
                              std::size_t{9000}, std::size_t{300000}}) {
      std::vector<std::uint8_t> out(bytes,
                                    static_cast<std::uint8_t>(comm.rank() + 1));
      std::vector<std::uint8_t> in(bytes, 0);
      auto req = comm.irecv(in.data(), static_cast<int>(bytes),
                            Datatype::uint8(), peer, 0);
      comm.send(out.data(), static_cast<int>(bytes), Datatype::uint8(), peer,
                0);
      req.wait();
      for (auto byte : in) {
        ASSERT_EQ(byte, static_cast<std::uint8_t>(peer + 1));
      }
    }
  });
}

TEST_P(BaselineCorrectness, CollectivesRunOverBaselineDevices) {
  const auto& param = GetParam();
  auto session = baseline_session(param.profile, param.protocol, 4);
  session->run([](Comm comm) {
    int mine = comm.rank() + 1;
    int sum = 0;
    comm.allreduce(&mine, &sum, 1, Datatype::int32(), mpi::Op::sum());
    EXPECT_EQ(sum, 10);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, BaselineCorrectness,
    ::testing::Values(BaselineCase{"ch_p4", sim::Protocol::kTcp},
                      BaselineCase{"ScaMPI", sim::Protocol::kSisci},
                      BaselineCase{"SCI-MPICH", sim::Protocol::kSisci},
                      BaselineCase{"MPI-GM", sim::Protocol::kBip},
                      BaselineCase{"MPICH-PM", sim::Protocol::kBip}),
    [](const auto& info) {
      std::string name = info.param.profile;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BaselineProfiles, LookupAndAliases) {
  EXPECT_EQ(baselines::profile_by_name("ch_p4").protocol,
            sim::Protocol::kTcp);
  EXPECT_EQ(baselines::profile_by_name("scampi").name, "ScaMPI");
  EXPECT_EQ(baselines::profile_by_name("ch_smi").name, "SCI-MPICH");
  EXPECT_EQ(baselines::profile_by_name("mpi_gm").name, "MPI-GM");
  EXPECT_EQ(baselines::profile_by_name("mpich_pm").name, "MPICH-PM");
  EXPECT_DEATH(baselines::profile_by_name("open-mpi"), "unknown baseline");
}

// ------------------------------------------------------------------ shapes
//
// The relative claims of Figures 6-8, encoded as regression tests so the
// calibration cannot drift away from the paper's conclusions.

TEST(FigureShapes, Fig6ChMadBeatsChP4AtSmallSizes) {
  auto chmad = core::Session::Options{};
  chmad.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  Session chmad_session(std::move(chmad));
  auto p4_session = baseline_session("ch_p4", sim::Protocol::kTcp);

  for (std::size_t bytes : {4u, 64u, 256u}) {
    const auto mad = core::mpi_pingpong(chmad_session, bytes);
    const auto p4 = core::mpi_pingpong(*p4_session, bytes);
    EXPECT_LT(mad.one_way_us, p4.one_way_us) << bytes << " bytes";
  }
}

TEST(FigureShapes, Fig6ChP4CeilingVsChMadRendezvous) {
  auto chmad = core::Session::Options{};
  chmad.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kTcp);
  Session chmad_session(std::move(chmad));
  auto p4_session = baseline_session("ch_p4", sim::Protocol::kTcp);

  const auto mad = core::mpi_pingpong(chmad_session, 1u << 20, 1);
  const auto p4 = core::mpi_pingpong(*p4_session, 1u << 20, 1);
  EXPECT_GT(mad.bandwidth_mb_s, 11.0);  // "even exceeds 11 MB/s"
  EXPECT_LT(p4.bandwidth_mb_s, 10.5);   // "ceiling of 10 MB/s"
}

TEST(FigureShapes, Fig7NativeSciPortsWinOnLatency) {
  auto chmad = core::Session::Options{};
  chmad.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  Session chmad_session(std::move(chmad));
  auto scampi = baseline_session("ScaMPI", sim::Protocol::kSisci);
  auto smi = baseline_session("SCI-MPICH", sim::Protocol::kSisci);

  const auto mad4 = core::mpi_pingpong(chmad_session, 4);
  const auto scampi4 = core::mpi_pingpong(*scampi, 4);
  const auto smi4 = core::mpi_pingpong(*smi, 4);
  // "Latencies comparisons are not favourable to the ch_mad device".
  EXPECT_LT(scampi4.one_way_us, smi4.one_way_us);
  EXPECT_LT(smi4.one_way_us, mad4.one_way_us);
}

TEST(FigureShapes, Fig7ChMadWinsBandwidthBeyond16K) {
  auto chmad = core::Session::Options{};
  chmad.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  Session chmad_session(std::move(chmad));
  auto scampi = baseline_session("ScaMPI", sim::Protocol::kSisci);
  auto smi = baseline_session("SCI-MPICH", sim::Protocol::kSisci);

  for (std::size_t bytes : {16u << 10, 64u << 10, 1u << 20}) {
    const auto mad = core::mpi_pingpong(chmad_session, bytes, 1);
    EXPECT_GT(mad.bandwidth_mb_s,
              core::mpi_pingpong(*scampi, bytes, 1).bandwidth_mb_s)
        << bytes;
    EXPECT_GT(mad.bandwidth_mb_s,
              core::mpi_pingpong(*smi, bytes, 1).bandwidth_mb_s)
        << bytes;
  }
  // "a sustained bandwidth of 80 MB/s and more" past the switch.
  EXPECT_GT(core::mpi_pingpong(chmad_session, 256u << 10, 1).bandwidth_mb_s,
            80.0);
}

TEST(FigureShapes, Fig8LatencyOrdering) {
  auto chmad = core::Session::Options{};
  chmad.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kBip);
  Session chmad_session(std::move(chmad));
  auto gm = baseline_session("MPI-GM", sim::Protocol::kBip);
  auto pm = baseline_session("MPICH-PM", sim::Protocol::kBip);

  // Below 512 B: PM < ch_mad < GM ("ch_mad performs better than MPI-GM and
  // presents a slight gap (5 us) with MPICH-PM").
  for (std::size_t bytes : {4u, 128u, 256u}) {
    const auto mad = core::mpi_pingpong(chmad_session, bytes);
    EXPECT_LT(core::mpi_pingpong(*pm, bytes).one_way_us, mad.one_way_us)
        << bytes;
    EXPECT_LT(mad.one_way_us, core::mpi_pingpong(*gm, bytes).one_way_us)
        << bytes;
  }
  const double gap = core::mpi_pingpong(chmad_session, 4).one_way_us -
                     core::mpi_pingpong(*pm, 4).one_way_us;
  EXPECT_NEAR(gap, 5.0, 2.5);
}

TEST(FigureShapes, Fig8BandwidthClaims) {
  auto chmad = core::Session::Options{};
  chmad.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kBip);
  Session chmad_session(std::move(chmad));
  auto gm = baseline_session("MPI-GM", sim::Protocol::kBip);
  auto pm = baseline_session("MPICH-PM", sim::Protocol::kBip);

  // "MPI-GM is definitely outperformed by both ch_mad and MPICH-PM".
  for (std::size_t bytes : {64u << 10, 1u << 20}) {
    const auto gm_bw = core::mpi_pingpong(*gm, bytes, 1).bandwidth_mb_s;
    EXPECT_GT(core::mpi_pingpong(chmad_session, bytes, 1).bandwidth_mb_s,
              gm_bw * 1.5)
        << bytes;
    EXPECT_GT(core::mpi_pingpong(*pm, bytes, 1).bandwidth_mb_s, gm_bw * 1.5)
        << bytes;
  }
  // "For messages smaller than 4 KB ... MPICH-PM takes the advantage".
  EXPECT_GT(core::mpi_pingpong(*pm, 2048, 1).bandwidth_mb_s,
            core::mpi_pingpong(chmad_session, 2048, 1).bandwidth_mb_s);
  // "... and larger than 256 KB".
  EXPECT_GT(core::mpi_pingpong(*pm, 1u << 20, 1).bandwidth_mb_s,
            core::mpi_pingpong(chmad_session, 1u << 20, 1).bandwidth_mb_s);
}

TEST(FigureShapes, Fig9MultiProtocolOverheadLimited) {
  Session::Options sci_only;
  sci_only.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  Session alone(std::move(sci_only));

  Session::Options dual;
  dual.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  sim::NetworkSpec tcp;
  tcp.protocol = sim::Protocol::kTcp;
  for (const auto& node : dual.cluster.nodes) tcp.members.push_back(node.name);
  dual.cluster.networks.push_back(std::move(tcp));
  Session both(std::move(dual));

  const auto lat_alone = core::mpi_pingpong(alone, 4);
  const auto lat_both = core::mpi_pingpong(both, 4);
  // A visible but bounded penalty (half a TCP select per message).
  EXPECT_GT(lat_both.one_way_us, lat_alone.one_way_us + 2.0);
  EXPECT_LT(lat_both.one_way_us, lat_alone.one_way_us + 15.0);

  // At 1 MB the gap must be nearly gone ("performance ... very close").
  const auto bw_alone = core::mpi_pingpong(alone, 1u << 20, 1);
  const auto bw_both = core::mpi_pingpong(both, 1u << 20, 1);
  EXPECT_GT(bw_both.bandwidth_mb_s, bw_alone.bandwidth_mb_s * 0.97);
}

}  // namespace
}  // namespace madmpi
