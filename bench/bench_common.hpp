// Shared helpers for the figure/table benchmarks: session construction for
// ch_mad and each baseline, series runners, and paper-style printing.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/native_device.hpp"
#include "common/datapath_stats.hpp"
#include "common/stats.hpp"
#include "core/pingpong.hpp"
#include "core/session.hpp"

namespace madmpi::bench {

/// A measurable target: name + a (message size -> result) function.
struct Target {
  std::string name;
  std::function<core::PingPongResult(std::size_t bytes, int reps)> measure;
};

/// Session with ch_mad over a two-node mono-protocol cluster (the paper's
/// device compiled "in a mono-protocol fashion", §5).
inline std::unique_ptr<core::Session> make_chmad_session(
    sim::Protocol protocol) {
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  return std::make_unique<core::Session>(std::move(options));
}

/// Session whose inter-node device is one of the published comparators.
inline std::unique_ptr<core::Session> make_baseline_session(
    const std::string& profile_name, sim::Protocol protocol) {
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  options.internode_factory =
      [profile_name](core::Session& session)
      -> std::unique_ptr<core::ManagedDevice> {
    return std::make_unique<baselines::NativeDevice>(
        baselines::profile_by_name(profile_name), session.fabric(),
        session.cluster(), session.directory());
  };
  return std::make_unique<core::Session>(std::move(options));
}

inline Target mpi_target(std::string name, core::Session& session) {
  return Target{std::move(name),
                [&session](std::size_t bytes, int reps) {
                  return core::mpi_pingpong(session, bytes, reps);
                }};
}

inline Target raw_madeleine_target(std::string name, mad::Channel& channel) {
  return Target{std::move(name),
                [&channel](std::size_t bytes, int reps) {
                  return core::raw_madeleine_pingpong(channel, 0, 1, bytes,
                                                      reps);
                }};
}

/// Transfer-time series (paper's "(a)" panels): sizes 1 B .. 1 KB.
inline Series latency_series(const std::vector<Target>& targets) {
  Series series;
  series.x_label = "bytes";
  for (const auto& target : targets) {
    series.y_labels.push_back(target.name + "_us");
  }
  for (std::size_t size : power_of_two_sizes(1024)) {
    std::vector<double> ys;
    for (const auto& target : targets) {
      ys.push_back(target.measure(size, 3).one_way_us);
    }
    series.add(static_cast<double>(size), std::move(ys));
  }
  return series;
}

/// Bandwidth series (paper's "(b)" panels): sizes 1 B .. 1 MB.
inline Series bandwidth_series(const std::vector<Target>& targets) {
  Series series;
  series.x_label = "bytes";
  for (const auto& target : targets) {
    series.y_labels.push_back(target.name + "_MB/s");
  }
  for (std::size_t size : power_of_two_sizes(1 << 20)) {
    std::vector<double> ys;
    for (const auto& target : targets) {
      const int reps = size >= (64u << 10) ? 1 : 3;
      ys.push_back(target.measure(size, reps).bandwidth_mb_s);
    }
    series.add(static_cast<double>(size), std::move(ys));
  }
  return series;
}

inline void print_figure(const char* title, const Series& series) {
  std::printf("\n### %s\n%s", title, series.to_table().c_str());
}

// ---- Machine-readable results (--json) ------------------------------
//
// Every column is a named vector aligned on the same x axis; the writer
// emits `{"bench": <name>, "series": {<key>: [...], ...}}`. Future PRs
// diff these files for a perf trajectory.

struct JsonColumn {
  std::string key;
  std::vector<double> values;
};

inline bool write_json_series(const std::string& path,
                              const std::string& bench,
                              const std::vector<JsonColumn>& columns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"series\": {\n", bench.c_str());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::fprintf(f, "    \"%s\": [", columns[i].key.c_str());
    for (std::size_t j = 0; j < columns[i].values.size(); ++j) {
      std::fprintf(f, "%s%.10g", j == 0 ? "" : ", ", columns[i].values[j]);
    }
    std::fprintf(f, "]%s\n", i + 1 < columns.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

/// Pull `--json <path>` / `--json=<path>` out of argv. Empty when absent.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) return argv[i + 1];
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return {};
}

/// The eager-path sweep behind BENCH_eager.json: message sizes 1 B..1 KB
/// (all below every switch point, so every message rides the MAD_SHORT_PKT
/// path), reporting virtual latency/bandwidth plus the *real* datapath
/// accounting — bytes memcpy'd and staging buffers allocated per message.
/// The per-message divisor counts the measured window's round trips
/// (including the ping-pong's own untimed warm-up lap); a separate
/// warm-up call beforehand settles pools and queues so the window sees
/// steady state.
inline std::vector<JsonColumn> eager_sweep(
    sim::Protocol protocol = sim::Protocol::kTcp, int reps = 40) {
  std::vector<double> xs, lat, bw, copied, allocs, pool_allocs, modeled;
  std::vector<double> probes, bucket_locks, rank_locks, posted_hw,
      unexpected_hw;
  for (std::size_t size : power_of_two_sizes(1024)) {
    auto session = make_chmad_session(protocol);
    core::mpi_pingpong(*session, size, 40);  // settle first-use effects
    auto& stats = DatapathStats::global();
    const auto before = stats.snapshot();
    const auto result = core::mpi_pingpong(*session, size, reps);
    const auto d = stats.snapshot() - before;
    const double msgs = 2.0 * (reps + 1);
    xs.push_back(static_cast<double>(size));
    lat.push_back(result.one_way_us);
    bw.push_back(result.bandwidth_mb_s);
    copied.push_back(static_cast<double>(d.bytes_copied) / msgs);
    allocs.push_back(static_cast<double>(d.staging_allocs) / msgs);
    pool_allocs.push_back(
        static_cast<double>(d.slab_allocs + d.slab_fallbacks) / msgs);
    modeled.push_back(static_cast<double>(d.modeled_copy_bytes) / msgs);
    // Matcher observability: scan steps and lock acquisitions per match
    // attempt plus the queue-depth high-water marks for the window.
    const double attempts =
        d.match_attempts > 0 ? static_cast<double>(d.match_attempts) : 1.0;
    probes.push_back(static_cast<double>(d.match_probe_steps) / attempts);
    bucket_locks.push_back(static_cast<double>(d.match_bucket_locks) /
                           attempts);
    rank_locks.push_back(static_cast<double>(d.match_rank_locks) / attempts);
    posted_hw.push_back(static_cast<double>(d.match_posted_depth_hw));
    unexpected_hw.push_back(static_cast<double>(d.match_unexpected_depth_hw));
  }
  return {{"bytes", xs},
          {"one_way_us", lat},
          {"bandwidth_mb_s", bw},
          {"bytes_copied_per_msg", copied},
          {"staging_allocs_per_msg", allocs},
          {"pool_allocs_per_msg", pool_allocs},
          {"modeled_copy_bytes_per_msg", modeled},
          {"match_probes_per_attempt", probes},
          {"match_bucket_locks_per_attempt", bucket_locks},
          {"match_rank_locks_per_attempt", rank_locks},
          {"match_posted_depth_hw", posted_hw},
          {"match_unexpected_depth_hw", unexpected_hw}};
}

}  // namespace madmpi::bench
