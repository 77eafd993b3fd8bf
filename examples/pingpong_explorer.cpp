// mpptest-style command-line explorer: measure any device over any network.
//
//   ./pingpong_explorer [device] [protocol]
//     device   ch_mad (default) | ch_p4 | ScaMPI | SCI-MPICH | MPI-GM |
//              MPICH-PM | raw (raw Madeleine, no MPI layer)
//     protocol tcp (default) | sci | myrinet
//
// Prints the full transfer-time and bandwidth ladder from 1 B to 1 MB —
// the data behind every panel of the paper's Figures 6-8.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "baselines/native_device.hpp"
#include "core/pingpong.hpp"
#include "core/session.hpp"

using namespace madmpi;

int main(int argc, char** argv) {
  const std::string device = argc > 1 ? argv[1] : "ch_mad";
  const std::string proto_word = argc > 2 ? argv[2] : "tcp";

  const auto protocol = sim::protocol_from_keyword(proto_word);
  if (!protocol) {
    std::fprintf(stderr, "unknown protocol '%s' (tcp|sci|myrinet)\n",
                 proto_word.c_str());
    return 1;
  }

  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, *protocol);
  if (device != "ch_mad" && device != "raw") {
    options.internode_factory =
        [&device](core::Session& session)
        -> std::unique_ptr<core::ManagedDevice> {
      auto profile = baselines::profile_by_name(device);
      if (profile.protocol != session.cluster().networks[0].protocol) {
        fatal(device + " runs on " +
              sim::protocol_name(profile.protocol) + ", not " +
              sim::protocol_name(session.cluster().networks[0].protocol));
      }
      return std::make_unique<baselines::NativeDevice>(
          std::move(profile), session.fabric(), session.cluster(),
          session.directory());
    };
  }
  core::Session session(std::move(options));

  mad::Channel* raw_channel =
      device == "raw" ? &session.open_raw_channel() : nullptr;

  std::printf("# %s over %s\n", device.c_str(),
              sim::protocol_name(*protocol));
  std::printf("%10s %14s %14s\n", "bytes", "one_way_us", "MB/s");
  for (std::size_t size = 1; size <= (1u << 20); size *= 2) {
    core::PingPongResult result;
    if (raw_channel != nullptr) {
      result = core::raw_madeleine_pingpong(*raw_channel, 0, 1, size, 3);
    } else {
      result = core::mpi_pingpong(session, size, 3);
    }
    std::printf("%10zu %14.3f %14.3f\n", size, result.one_way_us,
                result.bandwidth_mb_s);
  }
  return 0;
}
