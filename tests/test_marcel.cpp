// Tests for the Marcel-like thread layer: semaphores, poll server, helpers
// run in place and the helper-task pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/native_device.hpp"
#include "core/session.hpp"
#include "marcel/poll_server.hpp"
#include "marcel/semaphore.hpp"
#include "marcel/task_pool.hpp"
#include "marcel/thread.hpp"

namespace madmpi::marcel {
namespace {

TEST(Semaphore, SignalThenWait) {
  sim::Node node(0, "n", 2);
  Semaphore sem(node, 0);
  sem.signal();
  EXPECT_EQ(sem.value(), 1);
  sem.wait();
  EXPECT_EQ(sem.value(), 0);
}

TEST(Semaphore, InitialPermits) {
  sim::Node node(0, "n", 2);
  Semaphore sem(node, 2);
  EXPECT_TRUE(sem.try_wait());
  EXPECT_TRUE(sem.try_wait());
  EXPECT_FALSE(sem.try_wait());
}

TEST(Semaphore, WaiterClockSyncsToReleaser) {
  sim::Node node(0, "n", 2);
  Semaphore sem(node, 0);
  node.clock().advance(100.0);  // "releaser" time
  sem.signal();
  // Simulate a waiter whose logical position was earlier: reset would be
  // wrong (shared clock), so instead check the wait charges the wake cost
  // beyond the release time.
  const usec_t release_time = node.clock().now();
  sem.wait();
  EXPECT_GE(node.clock().now(), release_time + ThreadCosts::kWake - 1e-9);
}

TEST(Semaphore, CrossThreadHandoff) {
  sim::Node node(0, "n", 2);
  Semaphore sem(node, 0);
  std::atomic<bool> released{false};
  std::thread releaser([&] {
    released = true;
    sem.signal();
  });
  sem.wait();
  EXPECT_TRUE(released.load());
  releaser.join();
}

TEST(PollServer, PollerCreationChargesMarcelCost) {
  sim::Node node(0, "n", 2);
  const usec_t before = node.clock().now();
  PollServer server(node);
  server.add_source(1, 1.0, nullptr, [] { return PollServer::Step::kDone; });
  server.join();
  EXPECT_DOUBLE_EQ(node.clock().now(), before + ThreadCosts::kCreate);
}

TEST(PollServer, JoinsOnDestruction) {
  sim::Node node(0, "n", 2);
  std::atomic<bool> ran{false};
  {
    PollServer server(node);
    server.add_source(1, 1.0, nullptr, [&] {
      ran = true;
      return PollServer::Step::kDone;
    });
  }
  EXPECT_TRUE(ran.load());
}

TEST(PollServer, PollersRegisterAndUnregisterOnNode) {
  sim::Node node(0, "n", 2);
  {
    PollServer server(node);
    std::atomic<int> remaining{3};
    server.add_source(7, 15.0, nullptr, [&] {
      return --remaining > 0 ? PollServer::Step::kHandled
                             : PollServer::Step::kDone;
    });
    EXPECT_EQ(server.poller_count(), 1u);
    server.join();
  }
  // After the poller exits it must have unregistered itself.
  EXPECT_EQ(node.active_pollers(), 0u);
}

TEST(PollServer, WakeupChargesWakePlusInterference) {
  sim::Node node(0, "n", 2);
  PollServer server(node);
  node.register_poller(1, 15.0);  // a concurrent TCP-ish poller
  node.register_poller(2, 0.4);   // the channel being handled
  const usec_t before = node.clock().now();
  const usec_t charged = server.charge_wakeup(2);
  EXPECT_DOUBLE_EQ(charged, ThreadCosts::kWake + 0.5 * 15.0);
  EXPECT_DOUBLE_EQ(node.clock().now(), before + charged);
}

TEST(PollServer, MultiplePollersRunConcurrently) {
  sim::Node node(0, "n", 2);
  PollServer server(node);
  std::atomic<int> alive{0};
  std::atomic<int> peak{0};
  std::atomic<bool> release{false};
  for (channel_id_t c = 0; c < 3; ++c) {
    server.add_source(c, 1.0, nullptr, [&] {
      const int now = ++alive;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      while (!release.load()) std::this_thread::yield();
      return PollServer::Step::kDone;  // one iteration then exit
    });
  }
  while (alive.load() < 3) std::this_thread::yield();
  release = true;
  server.join();
  EXPECT_EQ(peak.load(), 3);
}

TEST(PollServer, BodyThatBlocksHandsItsClaimBackAndLosesNoFrame) {
  // Two cheap sources of one node. Each frame the first one handles sends
  // two frames to the second, which the delivering thread claims (the
  // node is its own), then waits until the second source has handled
  // both. The wait must hand the claim back: the claimed token would
  // otherwise stay taken by a thread that sleeps until the body behind
  // it runs.
  constexpr int kFrames = 50;
  sim::Node node(0, "n", 2);
  sim::Port first_port;
  sim::Port second_port;
  Semaphore handled(node, 0);
  std::atomic<int> second_frames{0};
  std::atomic<int> claims_seen{0};
  std::atomic<int> first_frames{0};
  {
    PollServer server(node);
    server.add_source(1, 0.1, &first_port, [&] {
      if (!first_port.try_take()) return PollServer::Step::kIdle;
      second_port.deliver(sim::Frame{});
      second_port.deliver(sim::Frame{});
      if (PollServer::holds_claims()) ++claims_seen;
      handled.wait();
      handled.wait();
      ++first_frames;
      return PollServer::Step::kHandled;
    });
    server.add_source(2, 0.1, &second_port, [&] {
      if (!second_port.try_take()) return PollServer::Step::kIdle;
      ++second_frames;
      handled.signal();
      return PollServer::Step::kHandled;
    });
    for (int i = 0; i < kFrames; ++i) first_port.deliver(sim::Frame{});
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (first_frames.load() < kFrames &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (first_frames.load() < kFrames) {
      // A stranded claim deadlocks both poller threads: report it instead
      // of hanging in join().
      std::fprintf(stderr, "stuck after %d of %d frames\n",
                   first_frames.load(), kFrames);
      std::abort();
    }
    first_port.close();
    second_port.close();
    server.join();
  }
  EXPECT_EQ(first_frames.load(), kFrames);
  EXPECT_EQ(second_frames.load(), 2 * kFrames);
  // The first body claimed the second source at least once before it
  // waited (later frames may find the second poller still holding it).
  EXPECT_GE(claims_seen.load(), 1);
  EXPECT_FALSE(PollServer::holds_claims());
}

// ------------------------------------------------------------- TaskPool

std::unique_ptr<core::Session> sisci_pair() {
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  return std::make_unique<core::Session>(std::move(options));
}

// 16 KiB: above the 8 KiB switch point SISCI elects, so every message runs
// the rendezvous handshake with its reply and data-push helpers.
constexpr int kRndvBytes = 16 * 1024;

void rendezvous_pingpong(core::Session& session, int round_trips) {
  session.run([round_trips](mpi::Comm comm) {
    std::vector<std::uint8_t> buf(kRndvBytes);
    const auto type = mpi::Datatype::uint8();
    for (int i = 0; i < round_trips; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf.data(), kRndvBytes, type, 1, 0);
        comm.recv(buf.data(), kRndvBytes, type, 1, 0);
      } else {
        comm.recv(buf.data(), kRndvBytes, type, 0, 0);
        comm.send(buf.data(), kRndvBytes, type, 0, 0);
      }
    }
  });
}

TEST(TaskPool, BlockedSendTasksSurviveLateReceives) {
  // MPI-GM has no asynchronous rendezvous, so every isend falls back to a
  // helper task that blocks in the device until its ack arrives; so does
  // every bsend. The receiver posts nothing until all 128 are blocked,
  // then posts in reverse: only a pool that grows instead of queueing
  // lets every request out for those receives to match.
  // The eager go message leaves rank 0's node while those tasks still
  // send their requests, so this also needs the device to keep each
  // message's frames together.
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kBip);
  options.internode_factory = [](core::Session& session)
      -> std::unique_ptr<core::ManagedDevice> {
    return std::make_unique<baselines::NativeDevice>(
        baselines::profile_by_name("MPI-GM"), session.fabric(),
        session.cluster(), session.directory());
  };
  core::Session session(std::move(options));
  constexpr int kSends = 64;
  constexpr int kCount = 4096;  // 16 KiB of int32, above the 8 KiB threshold
  const auto type = mpi::Datatype::int32();
  session.run([&](mpi::Comm comm) {
    const int go_tag = 2 * kSends;
    if (comm.rank() == 0) {
      mpi::Comm::buffer_attach(
          kSends * (kCount * sizeof(int) + mpi::Comm::bsend_overhead()));
      std::vector<std::vector<int>> out(2 * kSends, std::vector<int>(kCount));
      std::vector<mpi::Request> isends;
      for (int m = 0; m < 2 * kSends; ++m) {
        for (int j = 0; j < kCount; ++j) out[m][j] = m * kCount + j;
        if (m < kSends) {
          isends.push_back(comm.isend(out[m].data(), kCount, type, 1, m));
        } else {
          comm.bsend(out[m].data(), kCount, type, 1, m);
        }
      }
      int go = 1;
      comm.send(&go, 1, type, 1, go_tag);
      for (auto& request : isends) {
        EXPECT_EQ(request.wait().error, ErrorCode::kOk);
      }
      mpi::Comm::buffer_detach();
    } else {
      int go = 0;
      comm.recv(&go, 1, type, 0, go_tag);
      std::vector<int> in(kCount);
      for (int m = 2 * kSends - 1; m >= 0; --m) {
        comm.recv(in.data(), kCount, type, 0, m);
        EXPECT_EQ(in.front(), m * kCount);
        EXPECT_EQ(in.back(), m * kCount + kCount - 1);
      }
    }
  });
  EXPECT_GE(session.tasks().workers_started(), 2u * kSends);
}

TEST(TaskPool, TaskAdoptsHighWaterNotAnEarlierTasksLane) {
  sim::Node node(0, "n", 2);
  TaskPool pool;
  pool.submit([&] { node.clock().bind_lane(5.0); });
  pool.wait_idle();
  // The finished task's lane is gone, as a finished thread's would be.
  EXPECT_TRUE(node.clock().lanes().empty());
  node.clock().advance(50.0);  // this thread's lane: 5 -> 55
  usec_t seen = 0.0;
  pool.submit([&] { seen = node.clock().now(); });
  pool.wait_idle();
  EXPECT_EQ(pool.workers_started(), 1u);  // one worker ran both tasks
  EXPECT_DOUBLE_EQ(seen, 55.0);
}

TEST(TaskPool, SpawnChargesCreateCostAndBindsBirth) {
  sim::Node node(0, "n", 2);
  TaskPool pool;
  node.clock().advance(10.0);
  usec_t birth = 0.0;
  spawn(pool, node, ThreadCosts::kCreate, [&] { birth = node.clock().now(); });
  pool.wait_idle();
  EXPECT_DOUBLE_EQ(node.clock().now(), 10.0 + ThreadCosts::kCreate);
  EXPECT_DOUBLE_EQ(birth, 10.0 + ThreadCosts::kCreate);
}

TEST(TaskPool, SpinTestOnPoolCompletedIsends) {
  // Regression: a request's completed flag and its semaphore permit must
  // become visible together. A test() spinning against the data-push
  // helper's complete() used to see the flag without the permit and abort.
  auto session = sisci_pair();
  session->run([](mpi::Comm comm) {
    std::vector<std::uint8_t> buf(kRndvBytes);
    const auto type = mpi::Datatype::uint8();
    for (int i = 0; i < 1000; ++i) {
      if (comm.rank() == 0) {
        mpi::Request request = comm.isend(buf.data(), kRndvBytes, type, 1, i);
        mpi::MpiStatus status;
        while (!request.test(&status)) {
        }
        EXPECT_EQ(status.error, ErrorCode::kOk);
      } else {
        comm.recv(buf.data(), kRndvBytes, type, 0, i);
      }
    }
  });
}

// --------------------------------------------------------------- run_now

TEST(RunNow, ChargesCallerAndBindsBirthLikeSpawn) {
  sim::Node spawned(0, "spawned", 2);
  sim::Node inline_node(1, "inline", 2);
  spawned.clock().advance(10.0);
  inline_node.clock().advance(10.0);
  usec_t spawn_birth = 0.0;
  usec_t inline_birth = 0.0;
  TaskPool pool;
  spawn(pool, spawned, ThreadCosts::kCreate,
        [&] { spawn_birth = spawned.clock().now(); });
  pool.wait_idle();
  run_now(inline_node, ThreadCosts::kCreate,
          [&] { inline_birth = inline_node.clock().now(); });
  EXPECT_EQ(pool.workers_started(), 1u);
  EXPECT_DOUBLE_EQ(inline_node.clock().now(), spawned.clock().now());
  EXPECT_DOUBLE_EQ(inline_node.clock().now(), 10.0 + ThreadCosts::kCreate);
  EXPECT_DOUBLE_EQ(inline_birth, spawn_birth);
  EXPECT_DOUBLE_EQ(inline_birth, 10.0 + ThreadCosts::kCreate);
}

TEST(RunNow, DropsHelperLaneAndKeepsCallerLane) {
  sim::Node node(0, "n", 2);
  node.clock().advance(7.0);
  std::size_t lanes_inside = 0;
  run_now(node, ThreadCosts::kCreate, [&] {
    node.clock().advance(100.0);  // the helper's work, not the caller's
    lanes_inside = node.clock().lanes().size();
  });
  EXPECT_EQ(lanes_inside, 2u);  // caller + helper
  const auto lanes = node.clock().lanes();
  ASSERT_EQ(lanes.size(), 1u);  // the helper's lane is gone
  EXPECT_DOUBLE_EQ(lanes.front().time, 7.0 + ThreadCosts::kCreate);
  EXPECT_DOUBLE_EQ(node.clock().now(), 7.0 + ThreadCosts::kCreate);
  EXPECT_DOUBLE_EQ(node.clock().high_water(),
                   7.0 + ThreadCosts::kCreate + 100.0);
}

TEST(RunNow, RestoresAFibersOpenBatch) {
  // What the fiber engine does around a run slice: its own lane map with
  // an open batch, whose high-water publication waits for end_batch().
  sim::Node node(0, "n", 2);
  sim::VirtualClock::LaneMap fiber_lanes;
  sim::VirtualClock::LaneMap* previous =
      sim::VirtualClock::exchange_lane_map(&fiber_lanes);
  sim::VirtualClock::begin_batch();
  node.clock().bind_lane(5.0);
  run_now(node, ThreadCosts::kCreate, [] {});
  node.clock().advance(1000.0);  // still batched: unpublished
  usec_t seen_elsewhere = 0.0;
  std::thread([&] { seen_elsewhere = node.clock().high_water(); }).join();
  EXPECT_LT(seen_elsewhere, 1000.0);
  EXPECT_DOUBLE_EQ(node.clock().high_water(),
                   5.0 + ThreadCosts::kCreate + 1000.0);
  sim::VirtualClock::end_batch();
  sim::VirtualClock::exchange_lane_map(previous);
  std::thread([&] { seen_elsewhere = node.clock().high_water(); }).join();
  EXPECT_DOUBLE_EQ(seen_elsewhere, 5.0 + ThreadCosts::kCreate + 1000.0);
}

TEST(RunNow, RendezvousPingPongStartsNoWorkers) {
  // Acks, data pushes and credit returns all run in place: a rendezvous
  // ping-pong never touches the pool.
  auto session = sisci_pair();
  rendezvous_pingpong(*session, 500);  // 1000 messages
  EXPECT_EQ(session->tasks().workers_started(), 0u);
}

// Regression for senders that wait on nothing: both ranks post 64
// rendezvous isends towards each other before either posts a matching
// receive, then push eager traffic through a small blocking credit
// window. Each node's poller sends credit returns and data pushes on the
// connections its rank thread is sending on, and every reply crosses the
// other side's. All of it must complete.
void crossed_isends_with_credit_traffic(sim::ClusterSpec cluster, rank_t a,
                                        rank_t b, bool forwarding) {
  core::Session::Options options;
  options.cluster = std::move(cluster);
  options.enable_forwarding = forwarding;
  options.credit_window_bytes = 4096;
  options.credit_policy = core::ChMadDevice::CreditPolicy::kBlock;
  core::Session session(std::move(options));
  const int rndv_bytes =
      static_cast<int>(2 * session.ch_mad()->rendezvous_threshold());
  constexpr int kRndv = 64;
  constexpr int kEager = 256;
  constexpr int kEagerBytes = 256;
  const auto type = mpi::Datatype::uint8();
  std::atomic<int> completed{0};
  session.run([&](mpi::Comm comm) {
    if (comm.rank() != a && comm.rank() != b) return;
    const rank_t peer = comm.rank() == a ? b : a;
    std::vector<std::vector<std::uint8_t>> eager_in(
        kEager, std::vector<std::uint8_t>(kEagerBytes));
    std::vector<mpi::Request> eager_recvs;
    for (int i = 0; i < kEager; ++i) {
      eager_recvs.push_back(comm.irecv(eager_in[i].data(), kEagerBytes, type,
                                       peer, kRndv + i));
    }
    std::vector<std::vector<std::uint8_t>> out(kRndv);
    std::vector<mpi::Request> sends;
    for (int m = 0; m < kRndv; ++m) {
      out[m].assign(static_cast<std::size_t>(rndv_bytes),
                    static_cast<std::uint8_t>(comm.rank() * 64 + m));
      sends.push_back(comm.isend(out[m].data(), rndv_bytes, type, peer, m));
    }
    std::vector<std::uint8_t> eager_out(kEagerBytes);
    for (int i = 0; i < kEager; ++i) {
      eager_out.assign(kEagerBytes, static_cast<std::uint8_t>(i));
      comm.send(eager_out.data(), kEagerBytes, type, peer, kRndv + i);
    }
    std::vector<std::uint8_t> in(static_cast<std::size_t>(rndv_bytes));
    for (int m = kRndv - 1; m >= 0; --m) {  // late, and in reverse
      const mpi::MpiStatus status = comm.recv(in.data(), rndv_bytes, type,
                                              peer, m);
      EXPECT_EQ(status.error, ErrorCode::kOk);
      EXPECT_EQ(in.front(), static_cast<std::uint8_t>(peer * 64 + m));
      EXPECT_EQ(in.back(), static_cast<std::uint8_t>(peer * 64 + m));
      ++completed;
    }
    for (int i = 0; i < kEager; ++i) {
      EXPECT_EQ(eager_recvs[i].wait().error, ErrorCode::kOk);
      EXPECT_EQ(eager_in[i].front(), static_cast<std::uint8_t>(i));
      ++completed;
    }
    for (auto& request : sends) {
      EXPECT_EQ(request.wait().error, ErrorCode::kOk);
      ++completed;
    }
  });
  EXPECT_EQ(completed.load(), 2 * (2 * kRndv + kEager));
  EXPECT_GT(session.ch_mad()->credit_packets(), 0u);
  EXPECT_EQ(session.tasks().workers_started(), 0u);
}

TEST(PollerSends, CrossedIsendsWithCreditTrafficOnSisci) {
  crossed_isends_with_credit_traffic(
      sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci), 0, 1,
      /*forwarding=*/false);
}

TEST(PollerSends, CrossedIsendsWithCreditTrafficThroughGateway) {
  // a on SCI, b on Myrinet, gw on both: a and b only reach each other
  // through the gateway's relay.
  sim::ClusterSpec spec;
  for (const char* name : {"a", "gw", "b"}) {
    sim::NodeSpec node;
    node.name = name;
    spec.nodes.push_back(node);
  }
  spec.networks.push_back({sim::Protocol::kSisci, 0, {"a", "gw"}});
  spec.networks.push_back({sim::Protocol::kBip, 0, {"gw", "b"}});
  crossed_isends_with_credit_traffic(std::move(spec), 0, 2,
                                     /*forwarding=*/true);
}

}  // namespace
}  // namespace madmpi::marcel
