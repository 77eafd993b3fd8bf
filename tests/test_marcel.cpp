// Tests for the Marcel-like thread layer: semaphores, poll server and the
// helper-task pool.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
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
  server.add_poller(1, 1.0, [] { return false; });
  server.join();
  EXPECT_DOUBLE_EQ(node.clock().now(), before + ThreadCosts::kCreate);
}

TEST(PollServer, JoinsOnDestruction) {
  sim::Node node(0, "n", 2);
  std::atomic<bool> ran{false};
  {
    PollServer server(node);
    server.add_poller(1, 1.0, [&] {
      ran = true;
      return false;
    });
  }
  EXPECT_TRUE(ran.load());
}

TEST(PollServer, PollersRegisterAndUnregisterOnNode) {
  sim::Node node(0, "n", 2);
  {
    PollServer server(node);
    std::atomic<int> remaining{3};
    server.add_poller(7, 15.0, [&] { return --remaining > 0; });
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
    server.add_poller(c, 1.0, [&] {
      const int now = ++alive;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      while (!release.load()) std::this_thread::yield();
      return false;  // one iteration then exit
    });
  }
  while (alive.load() < 3) std::this_thread::yield();
  release = true;
  server.join();
  EXPECT_EQ(peak.load(), 3);
}

// ------------------------------------------------------------- TaskPool

std::unique_ptr<core::Session> sisci_pair() {
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kSisci);
  return std::make_unique<core::Session>(std::move(options));
}

// 16 KiB: above the 8 KiB switch point SISCI elects, so every message runs
// the rendezvous handshake and its reply and data-push tasks.
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

TEST(TaskPool, RendezvousPingPongReusesWorkers) {
  auto session = sisci_pair();
  // Warm-up. A ping-pong usually keeps one or two tasks busy at a time;
  // two overlap only when the host delays a finishing task. Four bsends
  // that block in their tasks until the receiver posts first grow the
  // pool past that, so a late host delay cannot start a worker inside
  // the measured window.
  constexpr int kBurst = 4;
  session->run([](mpi::Comm comm) {
    std::vector<std::uint8_t> buf(kRndvBytes);
    const auto type = mpi::Datatype::uint8();
    if (comm.rank() == 0) {
      mpi::Comm::buffer_attach(kBurst *
                               (kRndvBytes + mpi::Comm::bsend_overhead()));
      for (int i = 0; i < kBurst; ++i) {
        comm.bsend(buf.data(), kRndvBytes, type, 1, i);
      }
      comm.send(buf.data(), 1, type, 1, kBurst);
      mpi::Comm::buffer_detach();
    } else {
      comm.recv(buf.data(), 1, type, 0, kBurst);
      for (int i = 0; i < kBurst; ++i) {
        comm.recv(buf.data(), kRndvBytes, type, 0, i);
      }
    }
  });
  rendezvous_pingpong(*session, 100);
  const std::uint64_t warm = session->tasks().workers_started();
  EXPECT_GE(warm, static_cast<std::uint64_t>(kBurst));
  rendezvous_pingpong(*session, 500);  // 1000 messages, 2000 helper tasks
  EXPECT_EQ(session->tasks().workers_started(), warm);
}

TEST(TaskPool, BlockedSendTasksSurviveLateReceives) {
  // MPI-GM has no asynchronous rendezvous, so every isend falls back to a
  // helper task that blocks in the device until its ack arrives; so does
  // every bsend. The receiver posts nothing until all 128 are blocked:
  // only a pool that grows instead of queueing can run the ack tasks.
  // The eager go message leaves rank 0's node while those tasks still
  // send their requests, so this also needs the device to keep each
  // message's frames together.
  core::Session::Options options;
  options.cluster = sim::ClusterSpec::homogeneous(2, sim::Protocol::kBip);
  options.internode_factory = [](core::Session& session)
      -> std::unique_ptr<core::ManagedDevice> {
    return std::make_unique<baselines::NativeDevice>(
        baselines::profile_by_name("MPI-GM"), session.fabric(),
        session.cluster(), session.directory(), session.tasks());
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
  // become visible together. A test() spinning against a helper task's
  // complete() used to see the flag without the permit and abort.
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

}  // namespace
}  // namespace madmpi::marcel
