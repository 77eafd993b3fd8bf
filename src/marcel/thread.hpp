// Marcel-like thread utilities.
//
// The paper relies on the Marcel user-level thread library for cheap thread
// creation (one temporary thread per MPI_Isend, per rendezvous reply), for
// blocking synchronization between polling threads and the MPI control
// thread, and for factorized network polling. Here the long-lived threads
// (pollers, marcel/poll_server.hpp) are std::threads; a temporary one runs
// in place, or on a reused worker pool if it waits on a peer
// (marcel/task_pool.hpp), so no OS thread is started per message. Either
// way the node's virtual clock is charged Marcel's *cost profile*.
#pragma once

#include "common/types.hpp"

namespace madmpi::marcel {

/// Virtual-time costs of Marcel operations (user-level threads are cheap:
/// the paper cites excellent creation/destruction/yield performance).
struct ThreadCosts {
  static constexpr usec_t kCreate = 2.0;     // spawn a temporary thread
  static constexpr usec_t kWake = 2.5;       // unblock + schedule a thread
  static constexpr usec_t kYield = 0.5;
  static constexpr usec_t kSemSignal = 0.5;  // semaphore V operation
};

}  // namespace madmpi::marcel
