// The repository benchmark: three closed-loop workloads driven through the
// public API (core::Session, mpi::Comm, Session::open_raw_channel and
// core::raw_madeleine_pingpong), each a single client inside this process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.csv>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics: counters over an untraced half window, spans over a traced half
// window, and a layer-floor probe (MPI vs raw Madeleine ping-pong). The last
// line of stdout is one JSON object {"correct","attempted","failed",
// "metrics"}. Every payload is checked; any failure exits non-zero.
// README.md beside this file describes the workloads and metrics.
#include <dlfcn.h>
#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pingpong.hpp"
#include "core/session.hpp"
#include "spans.hpp"

extern char** environ;

namespace {

// --- marcel layer, seen from outside: count thread creations ---------------

std::atomic<std::uint64_t> g_threads_created{0};

}  // namespace

// Interposed on the C library: every thread the process starts (rank
// threads, pollers, rendezvous helpers) passes through here.
extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*start)(void*), void* arg) noexcept {
  using Real = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                       void*);
  static const Real real =
      reinterpret_cast<Real>(dlsym(RTLD_NEXT, "pthread_create"));
  g_threads_created.fetch_add(1, std::memory_order_relaxed);
  return real(thread, attr, start, arg);
}

namespace {

using namespace madmpi;
using perfbench::Span;
namespace trace = perfbench::trace;

// --- inputs ------------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix(seed)) {}
  std::uint64_t next() { return state_ = mix(state_); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// One size per log-uniform stratum of [lo, hi], jittered by the seed and
/// shuffled. Stratifying keeps the size mix (hence every percentile) close
/// across seeds while no two seeds send the same sequence.
std::vector<std::size_t> stratified_sizes(Rng& rng, std::size_t lo,
                                          std::size_t hi, int strata) {
  const double a = std::log2(static_cast<double>(lo));
  const double b = std::log2(static_cast<double>(hi));
  std::vector<std::size_t> sizes;
  for (int i = 0; i < strata; ++i) {
    const double u = (i + rng.uniform()) / strata;
    const auto size =
        static_cast<std::size_t>(std::llround(std::exp2(a + u * (b - a))));
    sizes.push_back(std::clamp(size, lo, hi));
  }
  shuffle(sizes, rng);
  return sizes;
}

/// Seeded payload: 8-byte words derived from `key`.
void fill_pattern(std::byte* data, std::size_t bytes, std::uint64_t key) {
  const std::uint64_t base = mix(key);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const std::uint64_t word = base + i * 0x9e3779b97f4a7c15ULL;
    std::memcpy(data + i, &word, 8);
  }
  const std::uint64_t tail = base + i * 0x9e3779b97f4a7c15ULL;
  std::memcpy(data + i, &tail, bytes - i);
}

bool check_pattern(const std::byte* data, std::size_t bytes,
                   std::uint64_t key) {
  const std::uint64_t base = mix(key);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const std::uint64_t want = base + i * 0x9e3779b97f4a7c15ULL;
    if (std::memcmp(data + i, &want, 8) != 0) return false;
  }
  const std::uint64_t tail = base + i * 0x9e3779b97f4a7c15ULL;
  return std::memcmp(data + i, &tail, bytes - i) == 0;
}

// --- counters around a window --------------------------------------------

constexpr std::array<sim::Protocol, 4> kProtocols = {
    sim::Protocol::kTcp, sim::Protocol::kSisci, sim::Protocol::kBip,
    sim::Protocol::kShmem};

struct Counters {
  std::int64_t wall_ns = 0;
  double cpu_us = 0.0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t threads_created = 0;
  DatapathSnapshot datapath;
  std::uint64_t eager = 0, rendezvous = 0, credit_packets = 0, demoted = 0;
  std::array<net::Endpoint::TrafficStats, kProtocols.size()> traffic{};
};

std::size_t protocol_slot(sim::Protocol protocol) {
  return static_cast<std::size_t>(
      std::find(kProtocols.begin(), kProtocols.end(), protocol) -
      kProtocols.begin());
}

double rusage_cpu_us(const rusage& usage) {
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e6 +
         usage.ru_utime.tv_usec + usage.ru_stime.tv_usec;
}

Counters snapshot(core::Session& session) {
  Counters c;
  rusage usage{};  // one call for CPU time and context switches
  getrusage(RUSAGE_SELF, &usage);
  c.cpu_us = rusage_cpu_us(usage);
  c.ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  c.threads_created = g_threads_created.load(std::memory_order_relaxed);
  c.datapath = DatapathStats::global().snapshot();
  if (core::ChMadDevice* chmad = session.ch_mad()) {
    c.eager = chmad->eager_sent();
    c.rendezvous = chmad->rendezvous_sent();
    c.credit_packets = chmad->credit_packets();
    c.demoted = chmad->eager_demoted();
  }
  for (mad::Channel* channel : session.madeleine().channels()) {
    c.traffic[protocol_slot(channel->protocol())] += channel->traffic();
  }
  c.wall_ns = trace::now_ns();
  return c;
}

double process_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return rusage_cpu_us(usage);
}

/// A stretch of consecutive ops lasting about kChunkNs. Host-time metrics
/// are taken per chunk and reported as the median over chunks: a slower
/// library slows every chunk, while a burst of interference from other
/// tenants of the machine, or a minority scheduling regime of the threaded
/// engine, covers fewer than half of them and does not move the median.
struct Chunk {
  std::size_t first = 0, last = 0;  // sample index range
  std::int64_t wall_begin = 0, wall_end = 0;
  double cpu_begin = 0.0, cpu_end = 0.0;
  std::uint64_t ops_begin = 0, ops = 0;
};

constexpr std::int64_t kChunkNs = 100'000'000;

/// One timed window: counters at both ends, the range of samples taken and
/// its chunks.
struct Window {
  Counters begin, end;
  std::size_t first = 0, last = 0;  // sample index range [first, last)
  std::uint64_t ops = 0;            // ops completed
  std::uint64_t msgs = 0;           // MPI point-to-point messages issued
  std::uint64_t payload_bytes = 0;  // payload bytes of those messages
  std::vector<Chunk> chunks;

  double seconds() const { return (end.wall_ns - begin.wall_ns) * 1e-9; }

  void open(core::Session& session, std::size_t next_sample) {
    first = next_sample;
    begin = snapshot(session);
    open_chunk(next_sample, begin.wall_ns, begin.cpu_us);
  }
  /// After every recorded op: close the chunk once it is long enough.
  void tick(std::size_t next_sample, std::int64_t now_ns) {
    if (now_ns - chunks.back().wall_begin < kChunkNs) return;
    close_chunk(next_sample, now_ns);
    open_chunk(next_sample, now_ns, chunks.back().cpu_end);
  }
  /// End the window; a last chunk shorter than half a chunk is dropped.
  void close(core::Session& session, std::size_t next_sample) {
    last = next_sample;
    end = snapshot(session);
    close_chunk(next_sample, end.wall_ns);
    const Chunk& tail = chunks.back();
    if (chunks.size() > 1 &&
        (tail.wall_end - tail.wall_begin < kChunkNs / 2 || tail.ops == 0)) {
      chunks.pop_back();
    }
  }

 private:
  void open_chunk(std::size_t sample, std::int64_t wall, double cpu) {
    Chunk chunk;
    chunk.first = sample;
    chunk.wall_begin = wall;
    chunk.cpu_begin = cpu;
    chunk.ops_begin = ops;
    chunks.push_back(chunk);
  }
  void close_chunk(std::size_t sample, std::int64_t wall) {
    Chunk& chunk = chunks.back();
    chunk.last = sample;
    chunk.wall_end = wall;
    chunk.cpu_end = process_cpu_us();
    chunk.ops = ops - chunk.ops_begin;
  }
};

// --- samples ------------------------------------------------------------

/// Fixed-capacity sample store, allocated and touched before any session
/// exists, so the peak-RSS metric does not grow with the number of ops a
/// faster library completes. A window also ends when it is full.
struct Samples {
  static constexpr std::size_t kCapacity = std::size_t{1} << 20;
  std::vector<double> wall_us = std::vector<double>(kCapacity, 0.0);
  std::vector<double> virt_us = std::vector<double>(kCapacity, 0.0);
};

/// Nearest-rank percentile of values[first, last).
double percentile(const std::vector<double>& values, std::size_t first,
                  std::size_t last, double p) {
  std::vector<double> v(values.begin() + static_cast<std::ptrdiff_t>(first),
                        values.begin() + static_cast<std::ptrdiff_t>(last));
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index),
                   v.end());
  return v[index];
}

/// The highest percentile, up to p90, that leaves >= 10 samples above it.
double tail_quantile(std::size_t n) {
  if (n == 0) return 0.9;
  return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.9);
}

// --- results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::atomic<std::uint64_t> failed{0};
  std::mutex errors_mutex;
  std::vector<std::string> errors;  // the first few, for stderr
  std::vector<Metric> metrics;

  /// Thread-safe: rank threads report their own failures.
  void fail(std::uint64_t count, const std::string& why) {
    failed.fetch_add(count, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(errors_mutex);
    if (errors.size() < 8) errors.push_back(why);
  }
  void add(std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  }
};

// --- workload description ---------------------------------------------

enum class Kind { kPingPong, kMetaExchange };

struct Workload {
  Kind kind;
  sim::ClusterSpec cluster;
  rank_t probe_a = 0, probe_b = 1;  // SISCI pair for the layer-floor probe
  std::size_t sisci_network = 0;    // index among the declared networks
  // Ping-pong: message sizes, one cycle, and whether they must sit below
  // (eager) or above (rendezvous) the elected switch point.
  std::vector<std::size_t> sizes;
  bool eager = true;
  // Meta exchange: count matrices (int32 elements, src*ranks+dst), one
  // cycle of steps.
  int ranks = 2;
  std::vector<std::vector<int>> counts;
  std::vector<std::size_t> probe_sizes;
};

// Ops per input cycle: enough that the size (or count-matrix) mix, and with
// it every percentile, barely moves between seeds. Windows end on cycle
// boundaries.
constexpr int kSizeCycle = 256;
constexpr int kStepCycle = 256;
constexpr int kProbeSizes = 32;
constexpr int kMetaRanks = 8;

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  Workload w;
  if (name == "pingpong_eager" || name == "pingpong_rndv") {
    w.kind = Kind::kPingPong;
    w.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
    w.eager = name == "pingpong_eager";
    w.sizes = w.eager
                  ? stratified_sizes(rng, 4, 4096, kSizeCycle)
                  : stratified_sizes(rng, 16 * 1024, 256 * 1024, kSizeCycle);
    std::vector<std::size_t> sorted = w.sizes;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); i += kSizeCycle / kProbeSizes) {
      w.probe_sizes.push_back(sorted[i]);
    }
    return w;
  }
  if (name == "meta_exchange") {
    w.kind = Kind::kMetaExchange;
    w.cluster = sim::ClusterSpec::cluster_of_clusters(2, 2, 2);
    w.ranks = kMetaRanks;
    w.probe_a = 0;  // sci0
    w.probe_b = 2;  // sci1
    w.sisci_network = 1;
    // Off-diagonal pairs by the device that carries them: ranks 2n, 2n+1
    // share node n; nodes 0-1 form the SCI cluster, nodes 2-3 the Myrinet
    // one, and TCP joins the clusters.
    enum { kSmp, kSci, kBip, kTcp, kClasses };
    std::array<std::vector<int>, kClasses> pairs_of;
    for (int src = 0; src < kMetaRanks; ++src) {
      for (int dst = 0; dst < kMetaRanks; ++dst) {
        const int a = src / 2, b = dst / 2;
        if (src == dst) continue;
        const int cls = a == b ? kSmp : (a < 2) != (b < 2) ? kTcp
                                 : a < 2                    ? kSci
                                                            : kBip;
        pairs_of[cls].push_back(src * kMetaRanks + dst);
      }
    }
    // One block per device and step (4 of 64 pairs, 1/16) carries
    // 16..64 KiB, above the switch point; its size comes from a stratified
    // list per device, so every seed has the same large-message mix.
    std::array<std::vector<std::size_t>, kClasses> big_bytes;
    for (auto& list : big_bytes) {
      list = stratified_sizes(rng, 16 * 1024, 64 * 1024, kStepCycle);
    }
    for (int step = 0; step < kStepCycle; ++step) {
      // Skewed small blocks: 1 .. 512 int32 (4 B .. 2 KiB), log-uniform.
      std::vector<int> counts(kMetaRanks * kMetaRanks);
      for (int& c : counts) {
        c = static_cast<int>(std::llround(std::exp2(rng.uniform() * 9.0)));
      }
      for (int cls = 0; cls < kClasses; ++cls) {
        const auto& pairs = pairs_of[cls];
        counts[pairs[rng.below(pairs.size())]] =
            static_cast<int>(big_bytes[cls][step] / 4);
      }
      w.counts.push_back(std::move(counts));
    }
    w.probe_sizes = stratified_sizes(rng, 4, 64 * 1024, kProbeSizes);
    std::sort(w.probe_sizes.begin(), w.probe_sizes.end());
    return w;
  }
  std::fprintf(stderr,
               "perfbench: unknown workload '%s' (pingpong_eager, "
               "pingpong_rndv, meta_exchange)\n",
               name.c_str());
  std::exit(2);
}

// --- run control ----------------------------------------------------------

constexpr int kTag = 7;
constexpr int kLastTag = 8;  // the client's final message

struct Plan {
  int windows = 1;           // 2 in traced mode: untraced, then traced
  double window_seconds = 1.0;
  bool warmup_only = false;  // setup: one op, then stop
};

// The traced window also ends once this many spans are recorded, which
// bounds the trace file and the recorder's memory.
constexpr std::uint64_t kSpanBudget = 200000;

struct RunState {
  Samples* samples = nullptr;
  std::vector<Window> windows;
  std::size_t next_sample = 0;
  std::uint64_t ops_attempted = 0;  // every op the client issued
};

/// Decide at an op-cycle boundary whether the current window ends: at its
/// deadline, when the sample store cannot take another cycle, or (traced
/// window) when the span budget is spent.
bool window_done(int window, std::int64_t deadline_ns,
                 bool store_full) {
  if (store_full || trace::now_ns() >= deadline_ns) return true;
  return window == 1 && trace::recorded() >= kSpanBudget;
}

// --- ping-pong ------------------------------------------------------------

/// Virtual durations are differences of large clock readings and carry
/// round-off in their last digits that depends on the absolute clock value.
/// Rounding to the picosecond, far below any modeled cost, makes identical
/// modeled work read identically wherever in the run it happens.
double virt_ps(double us) { return std::round(us * 1e6) * 1e-6; }

auto virt_of(const mpi::Comm& comm) {
  return [&comm] { return comm.wtime_us(); };
}

/// Rank 1: echo every message back, then verify it.
void echo_loop(mpi::Comm comm, const Workload& w, std::uint64_t seed,
               Result& result) {
  std::vector<std::byte> buffer(
      *std::max_element(w.sizes.begin(), w.sizes.end()));
  const auto type = mpi::Datatype::byte();
  for (std::uint64_t k = 0;; ++k) {
    const std::size_t size = w.sizes[k % w.sizes.size()];
    Span op("bench.echo", k, virt_of(comm));
    mpi::MpiStatus status;
    {
      Span s("mpi.recv", k, virt_of(comm));
      status = comm.recv(buffer.data(), static_cast<int>(size), type, 0,
                         mpi::kAnyTag);
    }
    Status sent;
    {
      Span s("mpi.send", k, virt_of(comm));
      sent = comm.send(buffer.data(), static_cast<int>(size), type, 0, kTag);
    }
    if (status.error != ErrorCode::kOk || status.bytes != size ||
        !check_pattern(buffer.data(), size, seed ^ (k << 8))) {
      result.fail(1, "ping payload or status mismatch at message " +
                         std::to_string(k));
    }
    if (!sent.is_ok()) result.fail(1, "echo send failed: " + sent.to_string());
    if (status.tag == kLastTag) return;
  }
}

/// Rank 0: the closed-loop client. One op is one message; a round trip
/// yields two ops and one sample (half the round trip, wall and virtual).
void pingpong_client(mpi::Comm comm, const Workload& w, std::uint64_t seed,
                     const Plan& plan, RunState& state, Result& result,
                     core::Session& session) {
  const std::size_t max_size =
      *std::max_element(w.sizes.begin(), w.sizes.end());
  std::vector<std::byte> out(max_size), in(max_size);
  const auto type = mpi::Datatype::byte();
  std::uint64_t k = 0;

  auto round_trip = [&](std::size_t size, int tag, bool record) {
    fill_pattern(out.data(), size, seed ^ (k << 8));
    Span op("bench.pingpong", k, virt_of(comm));
    const std::int64_t w0 = trace::now_ns();
    const double v0 = comm.wtime_us();
    Status sent;
    {
      Span s("mpi.send", k, virt_of(comm));
      sent = comm.send(out.data(), static_cast<int>(size), type, 1, tag);
    }
    mpi::MpiStatus status;
    {
      Span s("mpi.recv", k, virt_of(comm));
      status = comm.recv(in.data(), static_cast<int>(size), type, 1, kTag);
    }
    const double v1 = comm.wtime_us();
    const std::int64_t w1 = trace::now_ns();
    state.ops_attempted += 2;
    if (record) {
      state.samples->wall_us[state.next_sample] = (w1 - w0) * 1e-3 / 2.0;
      state.samples->virt_us[state.next_sample] = virt_ps((v1 - v0) / 2.0);
      ++state.next_sample;
    }
    if (!sent.is_ok()) result.fail(1, "send failed: " + sent.to_string());
    if (status.error != ErrorCode::kOk || status.bytes != size ||
        std::memcmp(in.data(), out.data(), size) != 0) {
      result.fail(1, "pong payload or status mismatch at message " +
                         std::to_string(k));
    }
    ++k;
  };

  if (plan.warmup_only) {
    round_trip(w.sizes[0], kLastTag, false);
    return;
  }
  for (std::size_t size : w.sizes) round_trip(size, kTag, false);  // warm-up

  const std::size_t n = w.sizes.size();
  for (int window = 0; window < plan.windows; ++window) {
    if (window == 1) trace::set_enabled(true);
    Window win;
    win.open(session, state.next_sample);
    const std::int64_t deadline =
        win.begin.wall_ns +
        static_cast<std::int64_t>(plan.window_seconds * 1e9);
    bool done = false;
    while (!done) {
      for (std::size_t i = 0; i < n; ++i) {
        int tag = kTag;
        if (i + 1 == n) {
          done = window_done(window, deadline,
                             state.next_sample + n > Samples::kCapacity);
          if (done && window + 1 == plan.windows) tag = kLastTag;
        }
        round_trip(w.sizes[i], tag, true);
        win.ops += 2;
        win.msgs += 2;
        win.payload_bytes += 2 * w.sizes[i];
        win.tick(state.next_sample, trace::now_ns());
      }
    }
    win.close(session, state.next_sample);
    trace::set_enabled(false);
    state.windows.push_back(win);
  }
}

// --- meta exchange ----------------------------------------------------------

constexpr double kStopFlag = 1099511627776.0;  // 2^40, added by rank 0

std::uint32_t block_value(int src, int dst, int index, std::uint64_t step,
                          std::uint32_t salt) {
  return static_cast<std::uint32_t>(index) * 2654435761u +
         static_cast<std::uint32_t>(src * kMetaRanks + dst) * 40503u +
         static_cast<std::uint32_t>(step) * 97u + salt;
}

double contribution(std::uint64_t seed, std::uint64_t step, int rank) {
  return static_cast<double>(
      mix(seed ^ (step << 8) ^ static_cast<std::uint64_t>(rank)) & 0xfffff);
}

/// Every rank: one step = alltoallv with the cycle's count matrix, then a
/// one-double allreduce whose sum is checked exactly. Rank 0 ends the run
/// by adding kStopFlag to its contribution. Per-rank virtual step times go
/// to virt_us[step * ranks + rank]; rank 0's wall step times to wall_us.
void meta_rank(mpi::Comm comm, const Workload& w, std::uint64_t seed,
               const Plan& plan, RunState& state, Result& result,
               core::Session& session) {
  const int me = comm.rank();
  const int ranks = comm.size();
  const auto salt = static_cast<std::uint32_t>(mix(seed));
  const auto type = mpi::Datatype::uint32();
  std::size_t max_total = 0;
  for (const auto& counts : w.counts) {
    for (int r = 0; r < ranks; ++r) {
      std::size_t in = 0, out = 0;
      for (int p = 0; p < ranks; ++p) {
        out += static_cast<std::size_t>(counts[r * ranks + p]);
        in += static_cast<std::size_t>(counts[p * ranks + r]);
      }
      max_total = std::max({max_total, in, out});
    }
  }
  std::vector<std::uint32_t> send(max_total), recv(max_total);
  std::vector<int> scounts(ranks), sdispls(ranks), rcounts(ranks),
      rdispls(ranks);

  const std::size_t max_steps =
      Samples::kCapacity / static_cast<std::size_t>(ranks);
  int window = -1;  // -1: warm-up
  Window win;
  std::int64_t deadline = 0;
  std::uint64_t step = 0;
  std::size_t sample_step = 0;  // rank 0: next wall-sample slot

  for (;; ++step) {
    const auto& counts = w.counts[step % w.counts.size()];
    int so = 0, ro = 0;
    for (int p = 0; p < ranks; ++p) {
      scounts[p] = counts[me * ranks + p];
      rcounts[p] = counts[p * ranks + me];
      sdispls[p] = so;
      rdispls[p] = ro;
      so += scounts[p];
      ro += rcounts[p];
    }
    for (int p = 0; p < ranks; ++p) {
      for (int i = 0; i < scounts[p]; ++i) {
        send[sdispls[p] + i] = block_value(me, p, i, step, salt);
      }
    }

    // Rank 0 runs the clock: one warm-up cycle, then the windows, each
    // ending on a cycle boundary.
    bool stop = me == 0 && plan.warmup_only;
    if (me == 0 && !plan.warmup_only) {
      bool open_next = window < 0 && step == kStepCycle;
      if (window >= 0 && step % kStepCycle == 0) {
        if (window_done(window, deadline,
                        sample_step + 2 * kStepCycle > max_steps)) {
          win.close(session, sample_step);
          trace::set_enabled(false);
          state.windows.push_back(win);
          stop = window + 1 == plan.windows;
          open_next = !stop;
        }
      }
      if (open_next) {
        ++window;
        if (window == 1) trace::set_enabled(true);
        win = Window{};
        win.open(session, sample_step);
        deadline = win.begin.wall_ns +
                   static_cast<std::int64_t>(plan.window_seconds * 1e9);
      }
    }
    const bool record = me == 0 && !stop && window >= 0;

    Span op("bench.step", step, virt_of(comm));
    const std::int64_t w0 = trace::now_ns();
    const double v0 = comm.wtime_us();
    Status a2a;
    {
      Span s("mpi.alltoallv", step, virt_of(comm));
      a2a = comm.alltoallv(send.data(), scounts, sdispls, type, recv.data(),
                           rcounts, rdispls, type);
    }
    double mine = contribution(seed, step, me) + (stop ? kStopFlag : 0.0);
    double sum = 0.0;
    Status red;
    {
      Span s("mpi.allreduce", step, virt_of(comm));
      red = comm.allreduce(&mine, &sum, 1, mpi::Datatype::float64(),
                           mpi::Op::sum());
    }
    const double v1 = comm.wtime_us();
    const std::int64_t w1 = trace::now_ns();

    // Every rank learns from the sum whether rank 0 ended the run.
    const bool stopping = sum >= kStopFlag;
    if (me == 0) ++state.ops_attempted;
    if (record) {
      state.samples->wall_us[sample_step] = (w1 - w0) * 1e-3;
      ++sample_step;
    }
    // Each rank owns one slot per step row.
    if (!stopping && step < max_steps) {
      state.samples->virt_us[step * static_cast<std::size_t>(ranks) +
                             static_cast<std::size_t>(me)] = virt_ps(v1 - v0);
    }

    std::uint64_t bad = 0;
    if (!a2a.is_ok() || !red.is_ok()) ++bad;
    for (int p = 0; p < ranks; ++p) {
      for (int i = 0; i < rcounts[p]; ++i) {
        if (recv[rdispls[p] + i] != block_value(p, me, i, step, salt)) {
          ++bad;
          break;
        }
      }
    }
    double expected = 0.0;
    for (int r = 0; r < ranks; ++r) expected += contribution(seed, step, r);
    if (sum - (stopping ? kStopFlag : 0.0) != expected) ++bad;
    if (bad != 0) {
      result.fail(bad, "meta_exchange step " + std::to_string(step) +
                           " rank " + std::to_string(me) + " mismatch");
    }
    if (record) {
      ++win.ops;
      win.msgs += static_cast<std::uint64_t>(ranks) * (ranks - 1);
      for (int src = 0; src < ranks; ++src) {
        for (int dst = 0; dst < ranks; ++dst) {
          if (src != dst) {
            win.payload_bytes +=
                4u * static_cast<std::uint64_t>(counts[src * ranks + dst]);
          }
        }
      }
      win.tick(sample_step, w1);
    }
    if (stopping) return;
  }
}

// --- running a workload ---------------------------------------------------

core::Session::Options options_for(const Workload& w) {
  core::Session::Options options;
  options.cluster = w.cluster;
  return options;
}

void run_ranks(core::Session& session, const Workload& w, std::uint64_t seed,
               const Plan& plan, RunState& state, Result& result) {
  session.run([&](mpi::Comm comm) {
    if (w.kind == Kind::kPingPong) {
      if (comm.rank() == 0) {
        pingpong_client(comm, w, seed, plan, state, result, session);
      } else if (comm.rank() == 1) {
        echo_loop(comm, w, seed, result);
      }
    } else {
      meta_rank(comm, w, seed, plan, state, result, session);
    }
  });
}

struct Setup {
  std::vector<double> total_s, ctor_s, first_run_s;
};

/// Construct the session `reps` times, each through its first completed
/// warm-up op; keep the last one for the timed run.
std::unique_ptr<core::Session> set_up(const Workload& w, std::uint64_t seed,
                                      int reps, Setup& setup, RunState& state,
                                      Result& result) {
  std::unique_ptr<core::Session> session;
  Plan warmup;
  warmup.warmup_only = true;
  for (int i = 0; i < reps; ++i) {
    session.reset();
    const std::int64_t t0 = trace::now_ns();
    {
      Span s("core.session_ctor", 0, perfbench::no_virt);
      session = std::make_unique<core::Session>(options_for(w));
    }
    const std::int64_t t1 = trace::now_ns();
    {
      Span s("core.session_run", 0, perfbench::no_virt);
      // Session-level spans only: the warm-up op's own spans would mix
      // cold first calls into the per-call layer means.
      const bool tracing = trace::enabled();
      trace::set_enabled(false);
      run_ranks(*session, w, seed, warmup, state, result);
      trace::set_enabled(tracing);
    }
    const std::int64_t t2 = trace::now_ns();
    setup.total_s.push_back((t2 - t0) * 1e-9);
    setup.ctor_s.push_back((t1 - t0) * 1e-9);
    setup.first_run_s.push_back((t2 - t1) * 1e-9);
  }
  return session;
}

double median(std::vector<double> v) {
  return percentile(v, 0, v.size(), 0.5);
}

// --- layer-floor probe (traced run) ---------------------------------------

struct Probe {
  std::vector<double> mpi_virt, mpi_wall, raw_virt, raw_wall, lib_raw_virt;
  std::uint64_t traced_raw_msgs = 0;
};

constexpr int kProbeReps = 16;

std::uint64_t probe_key(std::uint64_t seed, std::size_t size, int rep) {
  return seed ^ (static_cast<std::uint64_t>(size) << 20) ^
         static_cast<std::uint64_t>(rep);
}

/// MPI ping-pong between the workload's SISCI pair and raw Madeleine
/// ping-pong over a private SISCI channel, at each probe size. Both sides
/// check their payloads. The raw loop is the benchmark's own (spanned)
/// copy of core::raw_madeleine_pingpong, whose virtual one-way time it must
/// reproduce exactly (main() checks).
Probe layer_floor_probe(core::Session& session, const Workload& w,
                        std::uint64_t seed, Result& result) {
  Probe probe;
  const std::size_t max_size = w.probe_sizes.back();
  const auto type = mpi::Datatype::byte();
  session.run([&](mpi::Comm comm) {
    const bool client = comm.rank() == w.probe_a;
    if (!client && comm.rank() != w.probe_b) return;
    const rank_t peer = client ? w.probe_b : w.probe_a;
    std::vector<std::byte> out(max_size), in(max_size);
    for (std::size_t size : w.probe_sizes) {
      const auto count = static_cast<int>(size);
      std::int64_t w0 = 0;
      double v0 = 0.0;
      for (int r = 0; r <= kProbeReps; ++r) {  // r == 0 is the warm-up
        const std::uint64_t key = probe_key(seed, size, r);
        if (r == 1) {
          w0 = trace::now_ns();
          v0 = comm.wtime_us();
        }
        if (client) {
          fill_pattern(out.data(), size, key);
          const Status sent = comm.send(out.data(), count, type, peer, kTag);
          const mpi::MpiStatus got =
              comm.recv(in.data(), count, type, peer, kTag);
          if (!sent.is_ok() || got.error != ErrorCode::kOk ||
              std::memcmp(in.data(), out.data(), size) != 0) {
            result.fail(1, "probe pong mismatch");
          }
        } else {
          const mpi::MpiStatus got =
              comm.recv(in.data(), count, type, peer, kTag);
          const Status sent = comm.send(in.data(), count, type, peer, kTag);
          if (!sent.is_ok() || got.error != ErrorCode::kOk ||
              !check_pattern(in.data(), size, key)) {
            result.fail(1, "probe ping mismatch");
          }
        }
      }
      if (client) {
        probe.mpi_wall.push_back((trace::now_ns() - w0) * 1e-3 /
                                 (2.0 * kProbeReps));
        probe.mpi_virt.push_back(
            virt_ps((comm.wtime_us() - v0) / (2.0 * kProbeReps)));
      }
    }
  });
  result.attempted += 2 * (kProbeReps + 1) * w.probe_sizes.size();

  mad::Channel& channel =
      session.open_raw_channel(w.sisci_network, "perfbench");
  const node_id_t na = session.node_of(w.probe_a).id();
  const node_id_t nb = session.node_of(w.probe_b).id();
  mad::ChannelEndpoint& side_a = *channel.at(na);
  mad::ChannelEndpoint& side_b = *channel.at(nb);
  auto virt_a = [&side_a] { return side_a.node().clock().now(); };
  auto virt_b = [&side_b] { return side_b.node().clock().now(); };

  auto ping = [](mad::ChannelEndpoint& self, node_id_t peer, std::byte* data,
                 std::size_t size, auto virt, std::uint64_t op) {
    mad::Packing packing = [&] {
      Span s("mad.begin_packing", op, virt);
      return self.begin_packing(peer);
    }();
    packing.pack(data, size, mad::SendMode::kCheaper, mad::RecvMode::kCheaper);
    Span s("mad.end_packing", op, virt);
    return packing.end_packing().is_ok();
  };
  auto pong = [](mad::ChannelEndpoint& self, std::byte* data, std::size_t size,
                 auto virt, std::uint64_t op) {
    std::optional<mad::Unpacking> incoming = [&] {
      Span s("mad.begin_unpacking", op, virt);
      return self.begin_unpacking();
    }();
    if (!incoming) return false;
    incoming->unpack(data, size, mad::SendMode::kCheaper,
                     mad::RecvMode::kCheaper);
    Span s("mad.end_unpacking", op, virt);
    incoming->end_unpacking();
    return true;
  };

  // One raw ping-pong series at `size`: kProbeReps timed round trips after
  // one warm-up, payloads checked on both sides. Returns the one-way wall
  // and virtual time.
  auto raw_series = [&](std::size_t size) {
    std::vector<std::byte> buf_a(size), buf_b(size);
    std::atomic<std::uint64_t> peer_bad{0};
    std::thread peer([&] {
      for (int r = 0; r <= kProbeReps; ++r) {
        const std::uint64_t key = probe_key(seed, size, r);
        Span op("bench.raw_echo", static_cast<std::uint64_t>(r), virt_b);
        if (!pong(side_b, buf_b.data(), size, virt_b, r) ||
            !check_pattern(buf_b.data(), size, key) ||
            !ping(side_b, na, buf_b.data(), size, virt_b, r)) {
          ++peer_bad;
        }
      }
    });
    std::int64_t w0 = 0;
    double v0 = 0.0;
    std::uint64_t bad = 0;
    for (int r = 0; r <= kProbeReps; ++r) {
      const std::uint64_t key = probe_key(seed, size, r);
      fill_pattern(buf_a.data(), size, key);
      if (r == 1) {
        w0 = trace::now_ns();
        v0 = virt_a();
      }
      Span op("bench.raw_pingpong", static_cast<std::uint64_t>(r), virt_a);
      if (!ping(side_a, nb, buf_a.data(), size, virt_a, r) ||
          !pong(side_a, buf_a.data(), size, virt_a, r) ||
          !check_pattern(buf_a.data(), size, key)) {
        ++bad;
      }
    }
    const double wall = (trace::now_ns() - w0) * 1e-3 / (2.0 * kProbeReps);
    const double virt = virt_ps((virt_a() - v0) / (2.0 * kProbeReps));
    peer.join();
    bad += peer_bad.load();
    if (bad != 0) result.fail(bad, "raw probe payload mismatch");
    result.attempted += 2 * (kProbeReps + 1);
    return std::pair{wall, virt};
  };

  // Untraced series give the numbers; a traced repeat gives the mad spans.
  for (std::size_t size : w.probe_sizes) {
    const auto [wall, virt] = raw_series(size);
    probe.raw_wall.push_back(wall);
    probe.raw_virt.push_back(virt);
    const core::PingPongResult lib =
        core::raw_madeleine_pingpong(channel, na, nb, size);
    probe.lib_raw_virt.push_back(virt_ps(lib.one_way_us));
  }
  trace::set_enabled(true);
  for (std::size_t size : w.probe_sizes) {
    raw_series(size);
    probe.traced_raw_msgs += 2 * (kProbeReps + 1);
  }
  trace::set_enabled(false);
  return probe;
}

// --- metrics ----------------------------------------------------------------

double per(double value, double base) { return base > 0 ? value / base : 0.0; }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Virtual per-op values over the first kVirtCycles input cycles of a
/// window (fewer if the window was shorter): ping-pong one-way times, or
/// the slowest rank's step time for meta_exchange. Modeled time is a
/// function of the inputs, not of how fast the host ran, so a fixed prefix
/// keeps the virt_* metrics independent of how many cycles a run managed
/// (the credit-return pattern repeats every other cycle, and
/// meta_exchange's virtual step time drifts with the step count).
struct VirtOps {
  std::vector<double> us;         // one value per op
  std::vector<double> bytes;      // payload bytes of that op
  std::vector<double> imbalance;  // meta: slowest minus mean rank step time
};

constexpr std::size_t kVirtCycles = 8;

VirtOps window_virt(const Workload& w, const Samples& samples,
                    const Window& win) {
  VirtOps ops;
  if (w.kind == Kind::kPingPong) {
    const std::size_t n = w.sizes.size();
    const std::size_t last = std::min(win.last, win.first + kVirtCycles * n);
    for (std::size_t s = win.first; s < last; ++s) {
      ops.us.push_back(samples.virt_us[s]);
      ops.bytes.push_back(static_cast<double>(w.sizes[(s - win.first) % n]));
    }
    return ops;
  }
  // Rank 0's sample slots map to steps: warm-up is the first kStepCycle
  // steps, and each window's first sample is that many steps later.
  const auto ranks = static_cast<std::size_t>(w.ranks);
  const std::size_t last =
      std::min(win.last, win.first + kVirtCycles * kStepCycle);
  for (std::size_t s = win.first; s < last; ++s) {
    const std::size_t step = s + kStepCycle;
    if ((step + 1) * ranks > samples.virt_us.size()) break;
    const double* row = &samples.virt_us[step * ranks];
    const double slowest = *std::max_element(row, row + ranks);
    double sum = 0.0;
    for (std::size_t r = 0; r < ranks; ++r) sum += row[r];
    ops.us.push_back(slowest);
    ops.imbalance.push_back(slowest - sum / static_cast<double>(ranks));
    const auto& counts = w.counts[step % w.counts.size()];
    double bytes = 0.0;
    for (std::size_t pair = 0; pair < counts.size(); ++pair) {
      if (pair / ranks != pair % ranks) bytes += 4.0 * counts[pair];
    }
    ops.bytes.push_back(bytes);
  }
  return ops;
}

/// Modeled payload bandwidth (1 MB = 2^20 B): payload over modeled time
/// (one-way per message, or slowest-rank time per step).
double virt_mb_s(const VirtOps& ops) {
  double bytes = 0.0, us = 0.0;
  for (std::size_t i = 0; i < ops.us.size(); ++i) {
    bytes += ops.bytes[i];
    us += ops.us[i];
  }
  return per(bytes / 1048576.0, us * 1e-6);
}

void end_to_end_metrics(const Workload& w, const Samples& samples,
                        const Window& win, const Setup& setup,
                        Result& result) {
  // Per chunk: wall percentiles, throughput, CPU per op, each reported as
  // the median over chunks (see Chunk). Ping-pong: one sample is a round
  // trip, i.e. two ops, and stores per-op values (half the round trip).
  // Meta exchange: one sample per step (op).
  std::vector<double> p50, p90, rate, cpu;
  for (const Chunk& c : win.chunks) {
    const double ops = static_cast<double>(c.ops);
    p50.push_back(percentile(samples.wall_us, c.first, c.last, 0.5));
    p90.push_back(percentile(samples.wall_us, c.first, c.last,
                             tail_quantile(c.last - c.first)));
    rate.push_back(per(ops, (c.wall_end - c.wall_begin) * 1e-9));
    cpu.push_back(per(c.cpu_end - c.cpu_begin, ops));
  }
  const VirtOps virt_ops = window_virt(w, samples, win);
  const std::vector<double>& virt = virt_ops.us;
  result.add("setup_s", median(setup.total_s), "s");
  result.add("wall_us_per_op.p50", median(p50), "us");
  result.add("wall_us_per_op.p90", median(p90), "us");
  result.add("ops_per_s", median(rate), "1/s");
  result.add("cpu_us_per_op", median(cpu), "us");
  result.add("virt_us_per_op.p50", percentile(virt, 0, virt.size(), 0.5), "us");
  result.add("virt_us_per_op.p90",
             percentile(virt, 0, virt.size(), tail_quantile(virt.size())),
             "us");
  result.add("virt_mb_s", virt_mb_s(virt_ops), "MB/s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  result.add("ok_ops_ratio",
             1.0 - per(static_cast<double>(result.failed.load()),
                       static_cast<double>(result.attempted)),
             "ratio");
}

struct SpanStats {
  std::map<std::string, std::vector<double>> self_us, virt_us;
  double self_total_us_by_layer(const std::string& layer) const {
    double sum = 0.0;
    for (const auto& [name, values] : self_us) {
      if (name.rfind(layer + ".", 0) == 0) {
        for (double v : values) sum += v;
      }
    }
    return sum;
  }
  double self_total_us(const std::string& name) const {
    const auto it = self_us.find(name);
    double sum = 0.0;
    if (it != self_us.end()) {
      for (double v : it->second) sum += v;
    }
    return sum;
  }
  double mean_self(const std::string& name) const {
    const auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : mean(it->second);
  }
  double mean_virt(const std::string& name) const {
    const auto it = virt_us.find(name);
    return it == virt_us.end() ? 0.0 : mean(it->second);
  }
};

SpanStats span_stats(const std::vector<perfbench::SpanRecord>& spans,
                     const std::vector<std::int64_t>& self) {
  SpanStats stats;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    stats.self_us[spans[i].name].push_back(self[i] * 1e-3);
    stats.virt_us[spans[i].name].push_back(spans[i].virt_end_us -
                                           spans[i].virt_start_us);
  }
  return stats;
}

void per_layer_metrics(const Workload& w, const Samples& samples,
                       const Window& plain, const Window& traced,
                       const Setup& setup, const Probe& probe,
                       const SpanStats& spans, std::uint64_t span_count,
                       Result& result) {
  const Counters& b = plain.begin;
  const Counters& e = plain.end;
  const double msgs = static_cast<double>(plain.msgs);
  const DatapathSnapshot dp = e.datapath - b.datapath;

  // mpi
  result.add("mpi.send_wall_us", spans.mean_self("mpi.send"), "us");
  result.add("mpi.recv_wall_us", spans.mean_self("mpi.recv"), "us");
  result.add("mpi.alltoallv_wall_us", spans.mean_self("mpi.alltoallv"), "us");
  result.add("mpi.allreduce_wall_us", spans.mean_self("mpi.allreduce"), "us");
  result.add("mpi.alltoallv_virt_us", spans.mean_virt("mpi.alltoallv"), "us");
  result.add("mpi.allreduce_virt_us", spans.mean_virt("mpi.allreduce"), "us");
  result.add("mpi.step_imbalance_virt_us",
             mean(window_virt(w, samples, plain).imbalance), "us");
  result.add("mpi.match_attempts_per_msg",
             per(static_cast<double>(dp.match_attempts), msgs), "count");
  result.add("mpi.match_probes_per_attempt",
             per(static_cast<double>(dp.match_probe_steps),
                 static_cast<double>(dp.match_attempts)),
             "count");
  result.add("mpi.match_rank_locks_per_attempt",
             per(static_cast<double>(dp.match_rank_locks),
                 static_cast<double>(dp.match_attempts)),
             "count");
  result.add("mpi.unexpected_depth_hw",
             static_cast<double>(e.datapath.match_unexpected_depth_hw),
             "count");
  const double traced_ops = static_cast<double>(traced.ops);
  result.add("mpi.self_us_per_op",
             per(spans.self_total_us_by_layer("mpi"), traced_ops), "us");

  // core
  std::vector<double> virt_gap, wall_gap;
  for (std::size_t i = 0; i < probe.mpi_virt.size(); ++i) {
    virt_gap.push_back(probe.mpi_virt[i] - probe.raw_virt[i]);
    wall_gap.push_back(probe.mpi_wall[i] - probe.raw_wall[i]);
  }
  result.add("core.chmad_virt_overhead_us", mean(virt_gap), "us");
  result.add("core.chmad_virt_overhead_min_size_us",
             virt_gap.empty() ? 0.0 : virt_gap.front(), "us");
  result.add("core.chmad_wall_overhead_us", mean(wall_gap), "us");
  auto per_msg = [msgs](std::uint64_t before, std::uint64_t after) {
    return per(static_cast<double>(after - before), msgs);
  };
  result.add("core.eager_per_msg", per_msg(b.eager, e.eager), "count");
  result.add("core.rendezvous_per_msg", per_msg(b.rendezvous, e.rendezvous),
             "count");
  result.add("core.credit_packets_per_msg",
             per_msg(b.credit_packets, e.credit_packets), "count");
  result.add("core.eager_demoted_per_msg", per_msg(b.demoted, e.demoted),
             "count");
  result.add("core.session_ctor_s", median(setup.ctor_s), "s");
  result.add("core.first_run_s", median(setup.first_run_s), "s");

  // mad
  result.add("mad.raw_wall_us_per_msg", mean(probe.raw_wall), "us");
  result.add("mad.raw_virt_us_per_msg", mean(probe.lib_raw_virt), "us");
  result.add("mad.self_us_per_msg",
             per(spans.self_total_us_by_layer("mad"),
                 static_cast<double>(probe.traced_raw_msgs)),
             "us");
  result.add("mad.bytes_copied_per_msg",
             per(static_cast<double>(dp.bytes_copied), msgs), "B");
  result.add("mad.staging_allocs_per_msg",
             per(static_cast<double>(dp.staging_allocs), msgs), "count");
  result.add("mad.slab_reuse_ratio",
             per(static_cast<double>(dp.slab_reuses),
                 static_cast<double>(dp.slab_reuses + dp.slab_allocs +
                                     dp.slab_fallbacks)),
             "ratio");

  // marcel
  result.add("marcel.threads_created_per_msg",
             per_msg(b.threads_created, e.threads_created), "count");
  result.add("marcel.ctx_switches_per_msg",
             per_msg(b.ctx_switches, e.ctx_switches), "count");
  result.add("marcel.poll_wakeups_per_msg",
             per(static_cast<double>(dp.poll_wakeups), msgs), "count");
  result.add("marcel.cpu_per_wall",
             per((e.cpu_us - b.cpu_us) * 1e-6, plain.seconds()), "ratio");

  // net
  net::Endpoint::TrafficStats total;
  for (std::size_t p = 0; p < kProtocols.size(); ++p) {
    net::Endpoint::TrafficStats d;
    d.messages_sent = e.traffic[p].messages_sent - b.traffic[p].messages_sent;
    d.bytes_sent = e.traffic[p].bytes_sent - b.traffic[p].bytes_sent;
    d.retransmits = e.traffic[p].retransmits - b.traffic[p].retransmits;
    d.frames_dropped =
        e.traffic[p].frames_dropped - b.traffic[p].frames_dropped;
    total += d;
  }
  auto share = [&](sim::Protocol protocol) {
    const std::size_t p = protocol_slot(protocol);
    return per(static_cast<double>(e.traffic[p].bytes_sent -
                                   b.traffic[p].bytes_sent),
               static_cast<double>(total.bytes_sent));
  };
  result.add("net.frames_per_msg",
             per(static_cast<double>(total.messages_sent), msgs), "count");
  result.add("net.wire_bytes_per_payload_byte",
             per(static_cast<double>(total.bytes_sent),
                 static_cast<double>(plain.payload_bytes)),
             "ratio");
  result.add("net.retransmits", static_cast<double>(total.retransmits),
             "count");
  result.add("net.frames_dropped", static_cast<double>(total.frames_dropped),
             "count");
  result.add("net.bytes_share.tcp", share(sim::Protocol::kTcp), "ratio");
  result.add("net.bytes_share.sisci", share(sim::Protocol::kSisci), "ratio");
  result.add("net.bytes_share.bip", share(sim::Protocol::kBip), "ratio");

  // bench / trace
  const double bench_self_us = spans.self_total_us("bench.pingpong") +
                              spans.self_total_us("bench.echo") +
                              spans.self_total_us("bench.step");
  result.add("bench.self_us_per_op", per(bench_self_us, traced_ops), "us");
  result.add("trace.overhead_us_per_op",
             percentile(samples.wall_us, traced.first, traced.last, 0.5) -
                 percentile(samples.wall_us, plain.first, plain.last, 0.5),
             "us");
  result.add("trace.spans", static_cast<double>(span_count), "count");
}

void print_json(const Result& result, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed.load()));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <pingpong_eager|"
               "pingpong_rndv|meta_exchange> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file.csv>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 60.0) {
        usage("--seconds takes a number in (0, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

/// The library reads ~25 MADMPI_* knobs from the environment; any of them
/// would silently change what is measured, so refuse to run.
void refuse_madmpi_environment() {
  std::vector<std::string> set;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "MADMPI_", 7) == 0) {
      set.emplace_back(*entry, std::strcspn(*entry, "="));
    }
  }
  if (set.empty()) return;
  std::fprintf(stderr,
               "perfbench: refusing to run with MADMPI_* variables set; the "
               "benchmark measures the library defaults. Unset:");
  for (const std::string& name : set) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// The thread counter must see threads started through std::thread.
void check_thread_counter_live() {
  const std::uint64_t before = g_threads_created.load();
  std::thread([] {}).join();
  if (g_threads_created.load() != before + 1) {
    std::fprintf(stderr,
                 "perfbench: pthread_create interposition is not live\n");
    std::exit(2);
  }
}

/// Workload preconditions against the elected switch point.
void check_switch_point(core::Session& session, const Workload& w,
                        Result& result) {
  if (w.kind != Kind::kPingPong) return;
  const std::size_t sp = session.ch_mad()->switch_point();
  const auto [lo, hi] = std::minmax_element(w.sizes.begin(), w.sizes.end());
  if (w.eager ? *hi >= sp : *lo < sp) {
    result.fail(1, "sizes " + std::to_string(*lo) + ".." + std::to_string(*hi) +
                       " are not all on the " +
                       (w.eager ? "eager" : "rendezvous") +
                       " side of the switch point " + std::to_string(sp));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  refuse_madmpi_environment();
  check_thread_counter_live();
  const Workload w = make_workload(args.workload, args.seed);

  auto samples = std::make_unique<Samples>();
  RunState state;
  state.samples = samples.get();
  Result result;

  if (args.trace) {
    trace::arm();
    trace::set_enabled(true);  // session ctor/run spans of the set-up
  }
  constexpr int kSetupReps = 101;
  Setup setup;
  std::unique_ptr<core::Session> session =
      set_up(w, args.seed, kSetupReps, setup, state, result);
  trace::set_enabled(false);
  check_switch_point(*session, w, result);

  Plan plan;
  plan.windows = args.trace ? 2 : 1;
  plan.window_seconds = args.seconds / plan.windows;
  run_ranks(*session, w, args.seed, plan, state, result);
  result.attempted += state.ops_attempted;
  if (state.windows.size() != static_cast<std::size_t>(plan.windows) ||
      state.windows[0].ops == 0) {
    result.fail(1, "timed window did not complete");
  }

  if (result.failed.load() == 0) {
    if (!args.trace) {
      end_to_end_metrics(w, *samples, state.windows[0], setup, result);
    } else {
      const Probe probe = layer_floor_probe(*session, w, args.seed, result);
      for (std::size_t i = 0; i < probe.raw_virt.size(); ++i) {
        if (probe.raw_virt[i] != probe.lib_raw_virt[i]) {
          result.fail(1, "raw Madeleine probe virtual time " +
                             std::to_string(probe.raw_virt[i]) +
                             " differs from core::raw_madeleine_pingpong " +
                             std::to_string(probe.lib_raw_virt[i]));
        }
      }
      const auto spans = trace::collect();
      const auto self = trace::self_ns(spans);
      if (!args.trace_out.empty() &&
          !trace::write_csv(args.trace_out, spans, self)) {
        result.fail(1, "cannot write " + args.trace_out);
      }
      per_layer_metrics(w, *samples, state.windows[0], state.windows[1],
                        setup, probe, span_stats(spans, self), spans.size(),
                        result);
    }
  }
  session.reset();

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
  }
  const bool correct = result.failed.load() == 0;
  print_json(result, correct);
  return correct ? 0 : 1;
}
