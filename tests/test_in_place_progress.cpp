// Blocked ranks drain their node's cheap poll sources in place, and a
// sending thread runs the sources it claims (marcel/poll_server.hpp): a
// SISCI ping-pong completes with no poller thread woken, and a SISCI
// rendezvous with one rank wake per message, at unchanged virtual time;
// TCP keeps its poller thread; and no frame is stranded when waiters come
// and go while frames arrive on cheap and expensive channels at once.
// A blocked rank spins before it sleeps only while the rank threads fit
// the CPUs and its waits are short.
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "marcel/engine.hpp"

namespace madmpi {
namespace {

using core::Session;
using mpi::Comm;
using mpi::Datatype;
using mpi::Request;

Session::Options pair_options(sim::Protocol protocol) {
  Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, protocol);
  return options;
}

std::uint64_t poller_wakeups(Session& session) {
  return session.ch_mad()->poll_server(0).thread_wakeups() +
         session.ch_mad()->poll_server(1).thread_wakeups();
}

std::uint64_t spun_waits(Session& session, node_id_t node) {
  return session.ch_mad()->poll_server(node).spun_waits();
}

/// Context switches of the calling thread so far.
struct Switches {
  long voluntary = 0;
  long preemptions = 0;  // involuntary

  static Switches of_this_thread() {
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    return {usage.ru_nvcsw, usage.ru_nivcsw};
  }
};

/// CPU time the calling thread has used so far.
std::chrono::nanoseconds thread_cpu_time() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return std::chrono::seconds(now.tv_sec) + std::chrono::nanoseconds(now.tv_nsec);
}

struct PingPongRun {
  double virt_us_per_msg = 0.0;   // rank 0's one-way virtual time
  std::uint64_t poller_wakeups = 0;
  long rank_preemptions = 0;      // both rank threads, timed part
  long rank_voluntary_switches = 0;
  // Rank 0's thread over the timed part: CPU used and host time passed.
  std::chrono::nanoseconds rank0_cpu{0};
  std::chrono::nanoseconds rank0_wall{0};
};

/// `warmup + count` ping-pongs of `bytes` from rank 0, every receive
/// posted before its message can arrive, so no message takes the
/// unexpected path and the virtual time is exact. Only the last `count`
/// are measured. Rank 1 sleeps `echo_delay` of host time before each
/// reply.
PingPongRun pre_posted_pingpong(
    Session& session, int warmup, int count, int bytes = 64,
    std::chrono::microseconds echo_delay = std::chrono::microseconds(0)) {
  PingPongRun run;
  std::atomic<long> preemptions{0};
  std::atomic<long> voluntary{0};
  session.run([&](Comm comm) {
    std::vector<std::byte> out(bytes, std::byte{1});
    std::vector<std::byte> in(bytes);
    const int peer = 1 - comm.rank();
    const int total = warmup + count;
    Switches at;
    if (comm.rank() == 0) {
      usec_t start = 0.0;
      auto cpu_start = thread_cpu_time();
      auto wall_start = std::chrono::steady_clock::now();
      for (int i = 0; i < total; ++i) {
        if (i == warmup) {
          run.poller_wakeups = poller_wakeups(session);
          at = Switches::of_this_thread();
          start = comm.wtime_us();
          cpu_start = thread_cpu_time();
          wall_start = std::chrono::steady_clock::now();
        }
        Request pong =
            comm.irecv(in.data(), bytes, Datatype::byte(), peer, i);
        comm.send(out.data(), bytes, Datatype::byte(), peer, i);
        pong.wait();
      }
      run.rank0_cpu = thread_cpu_time() - cpu_start;
      run.rank0_wall = std::chrono::steady_clock::now() - wall_start;
      run.virt_us_per_msg = (comm.wtime_us() - start) / (2.0 * count);
      run.poller_wakeups = poller_wakeups(session) - run.poller_wakeups;
    } else {
      Request ping = comm.irecv(in.data(), bytes, Datatype::byte(), peer, 0);
      for (int i = 0; i < total; ++i) {
        if (i == warmup) at = Switches::of_this_thread();
        ping.wait();
        if (i + 1 < total) {
          ping = comm.irecv(in.data(), bytes, Datatype::byte(), peer, i + 1);
        }
        if (echo_delay.count() > 0) std::this_thread::sleep_for(echo_delay);
        comm.send(out.data(), bytes, Datatype::byte(), peer, i);
      }
    }
    const Switches now = Switches::of_this_thread();
    preemptions += now.preemptions - at.preemptions;
    voluntary += now.voluntary - at.voluntary;
  });
  run.rank_preemptions = preemptions.load();
  run.rank_voluntary_switches = voluntary.load();
  return run;
}

TEST(InPlaceProgress, SisciPingPongWakesNoPollerThread) {
  Session session(pair_options(sim::Protocol::kSisci));
  const PingPongRun run = pre_posted_pingpong(session, 100, 1000);
  if (marcel::engine_kind_from_env() == marcel::EngineKind::kThreaded) {
    // The blocked rank on each side covers its node, so every arrival is
    // drained by the rank it completes. A message finds its node
    // uncovered only if the host preempted the receiving rank between its
    // send and its wait: one poller wakeup per such preemption at most,
    // and none on a host that left the ranks alone.
    EXPECT_LE(run.poller_wakeups,
              static_cast<std::uint64_t>(run.rank_preemptions))
        << run.rank_preemptions << " rank preemptions";
  } else {
    // Fibers park instead of covering: the poller threads do the work.
    EXPECT_GT(run.poller_wakeups, 0u);
  }
  // Draining in place charges the poller's own lanes exactly as the poller
  // thread did: the per-message time is the one the poller-thread design
  // produced.
  EXPECT_DOUBLE_EQ(run.virt_us_per_msg, 20.862648757104662);
}

/// Narrows the calling thread's CPU affinity to one CPU; restores it.
class OneCpu {
 public:
  OneCpu() {
    CPU_ZERO(&saved_);
    sched_getaffinity(0, sizeof saved_, &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    sched_setaffinity(0, sizeof one, &one);
  }
  ~OneCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
};

// A sanitizer slows every message several times over: eager waits then
// outlast the spin budget, and a thread's own work its CPU bound, so the
// host-timing tests below measure the sanitizer instead.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

int allowed_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  sched_getaffinity(0, sizeof cpus, &cpus);
  return CPU_COUNT(&cpus);
}

TEST(InPlaceProgress, SisciPingPongSpinsInsteadOfSleeping) {
  if (marcel::engine_kind_from_env() != marcel::EngineKind::kThreaded) {
    GTEST_SKIP() << "fibers park; only rank OS threads spin";
  }
  if (allowed_cpus() < 3) {
    GTEST_SKIP() << "two rank threads spin only with a third CPU to spare";
  }
  if (kSanitized) GTEST_SKIP() << "host timing under a sanitizer";
  constexpr int kCount = 1000;
  Session session(pair_options(sim::Protocol::kSisci));
  const PingPongRun run = pre_posted_pingpong(session, 100, kCount);
  // Each rank spins until its peer's reply lands, so a message costs no
  // sleep. A preempted peer makes the waiter's spin run out: it sleeps
  // once, and the preempted thread may switch once more.
  constexpr long kMessages = 2 * kCount;
  EXPECT_LE(run.rank_voluntary_switches,
            kMessages / 10 + 2 * run.rank_preemptions)
      << run.rank_preemptions << " rank preemptions";
  // Spinning charges nothing: the per-message time is the sleeping
  // design's.
  EXPECT_DOUBLE_EQ(run.virt_us_per_msg, 20.862648757104662);
}

TEST(InPlaceProgress, RanksSleepWhenTheyShareACpu) {
  if (marcel::engine_kind_from_env() != marcel::EngineKind::kThreaded) {
    GTEST_SKIP() << "fibers park; only rank OS threads spin";
  }
  // Two rank threads on one CPU: a spinner would hold the CPU its peer
  // needs, so each wait sleeps at once, about once per message.
  constexpr int kCount = 1000;
  const OneCpu narrowed;
  Session session(pair_options(sim::Protocol::kSisci));
  const PingPongRun run = pre_posted_pingpong(session, 100, kCount);
  constexpr long kMessages = 2 * kCount;
  EXPECT_GE(run.rank_voluntary_switches, kMessages * 9 / 10)
      << run.rank_preemptions << " rank preemptions";
  EXPECT_EQ(spun_waits(session, 0) + spun_waits(session, 1), 0u);
  EXPECT_DOUBLE_EQ(run.virt_us_per_msg, 20.862648757104662);
}

TEST(InPlaceProgress, LongWaitsSleepInsteadOfSpinning) {
  if (marcel::engine_kind_from_env() != marcel::EngineKind::kThreaded) {
    GTEST_SKIP() << "fibers park; only rank OS threads spin";
  }
  if (allowed_cpus() < 3) {
    GTEST_SKIP() << "two rank threads spin only with a third CPU to spare";
  }
  if (kSanitized) GTEST_SKIP() << "host timing under a sanitizer";
  // The echo side holds each reply for 500 us of host time, far beyond
  // the spin budget: rank 0 never sees the short waits that would let it
  // spin, so each wait sleeps at once and its thread uses little CPU.
  Session session(pair_options(sim::Protocol::kSisci));
  const PingPongRun run = pre_posted_pingpong(
      session, 10, 200, 64, std::chrono::microseconds(500));
  EXPECT_LT(run.rank0_cpu.count(), run.rank0_wall.count() / 10)
      << "rank 0 used " << run.rank0_cpu.count() << " ns of CPU in "
      << run.rank0_wall.count() << " ns";
  EXPECT_EQ(spun_waits(session, 0), 0u);
}

TEST(InPlaceProgress, SisciRendezvousRunsOnTheSendingThread) {
  // 32 KiB is above SISCI's 8 KiB switch point: every message is a
  // REQUEST / OK_TO_SEND / DATA handshake. The sender claims the waiting
  // receiver's source, runs the match, then its own node's source for the
  // acknowledgement, then the receiver's again for the data: the whole
  // handshake runs on the sending thread.
  constexpr int kCount = 500;
  Session session(pair_options(sim::Protocol::kSisci));
  const PingPongRun run = pre_posted_pingpong(session, 50, kCount, 32 * 1024);
  if (marcel::engine_kind_from_env() == marcel::EngineKind::kThreaded) {
    // The one wake left per message is the receiver's completion. A rank
    // preempted between its send and its wait leaves its node uncovered
    // for the peer's next REQUEST, which then costs a poller wake and a
    // switch or two more.
    // Even unpreempted, the woken peer rarely reaches its send before the
    // signalling rank reaches its wait, and a contended mutex costs a
    // switch: allow 1% of the messages for each.
    constexpr long kMessages = 2 * kCount;
    EXPECT_LE(run.rank_voluntary_switches,
              kMessages + kMessages / 50 + 2 * run.rank_preemptions)
        << run.rank_preemptions << " rank preemptions";
    EXPECT_LE(run.poller_wakeups,
              static_cast<std::uint64_t>(kMessages / 100 +
                                         run.rank_preemptions))
        << run.rank_preemptions << " rank preemptions";
  }
  // Claimed sources run on their own lanes: the per-message time is the
  // one the poller threads produced.
  EXPECT_DOUBLE_EQ(run.virt_us_per_msg, 408.60974964485206);
}

TEST(InPlaceProgress, TcpPairStillWakesItsPollerThread) {
  // select() costs more than a thread wake: TCP keeps its poller thread.
  Session session(pair_options(sim::Protocol::kTcp));
  const PingPongRun run = pre_posted_pingpong(session, 0, 50);
  EXPECT_GT(run.poller_wakeups, 0u);
}

TEST(InPlaceProgress, CrossedIsendsOverCheapAndTcpChannelsStrandNoFrame) {
  // Nodes 0 and 1 share SISCI (drained in place) and TCP; node 2 is on TCP
  // only (its poller thread). Two ranks per node, so a node has several
  // waiters covering it at once. Every rank sends to every other rank at
  // once, eager and rendezvous sizes mixed, and waits for all of it: waits
  // begin and end while frames keep arriving on both kinds of channel.
  Session::Options options;
  options.cluster = sim::ClusterSpec::cluster_of_clusters(2, 1, 2);
  Session session(std::move(options));
  constexpr int kRounds = 20;
  session.run([](Comm comm) {
    const int size = comm.size();
    const int me = comm.rank();
    for (int round = 0; round < kRounds; ++round) {
      auto bytes_for = [round](int src, int dst) -> int {
        return (src + dst + round) % 3 == 0 ? 24 * 1024 : 40 + src + dst;
      };
      std::vector<std::vector<std::byte>> in(size);
      std::vector<std::vector<std::byte>> out(size);
      std::vector<Request> requests;
      for (int peer = 0; peer < size; ++peer) {
        if (peer == me) continue;
        in[peer].resize(bytes_for(peer, me));
        requests.push_back(comm.irecv(in[peer].data(),
                                      static_cast<int>(in[peer].size()),
                                      Datatype::byte(), peer, round));
      }
      for (int step = 1; step < size; ++step) {
        const int peer = (me + step) % size;
        out[peer].assign(bytes_for(me, peer),
                         static_cast<std::byte>(me * 16 + round));
        requests.push_back(comm.isend(out[peer].data(),
                                      static_cast<int>(out[peer].size()),
                                      Datatype::byte(), peer, round));
      }
      Request::wait_all(requests);
      for (int peer = 0; peer < size; ++peer) {
        if (peer == me) continue;
        const auto want = static_cast<std::byte>(peer * 16 + round);
        int wrong = 0;
        for (std::byte b : in[peer]) wrong += b != want ? 1 : 0;
        EXPECT_EQ(wrong, 0) << "round " << round << " from " << peer;
      }
    }
  });
}

}  // namespace
}  // namespace madmpi
