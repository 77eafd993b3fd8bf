// Nonblocking collectives: the nonblocking runner of the collective
// schedules (coll_schedule.hpp).
//
// Each MPI_Ibcast/Iallreduce/Ibarrier resolves its algorithm exactly like
// the blocking collective, builds the same per-rank schedule and returns
// immediately; the schedule advances from RequestState completion hooks —
// i.e. from whatever context completes the underlying transfer (a ch_mad
// poller, an smp sender, a fiber resume) — never from a hidden blocking
// call. That makes the runner engine-neutral: the threaded and sharded
// engines drive it identically.
//
// The pump: `pending_` counts outstanding tracked sub-operations plus one
// "issuing token" held while a round is being posted. Completions decrement;
// whoever drops it to zero advances to the next round. A round is one step,
// or a run of consecutive send-only steps (a tree node's fan-outs over
// several levels go out together). Every sub-operation primitive
// (coll_isend/coll_irecv) is non-blocking by construction — eager completes
// inline, rendezvous detaches — so hooks never stall their completer.
//
// Tags: each operation instance gets a private tag derived from a lockstep
// per-rank counter (Shared::next_icoll_seq). Two outstanding iallreduces
// sharing one tag could cross-match at a folded pair — the schedules have
// no cross-op ordering — so the instance tag, not the algorithm, namespaces
// the traffic. The window recycles after 64 concurrent instances, far past
// any sane outstanding-op count. Blocking collectives use tags 1..8; the
// instance space starts at 100, so the two never collide.
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "mpi/coll_schedule.hpp"
#include "mpi/comm.hpp"
#include "mpi/comm_shared.hpp"

namespace madmpi::mpi {

namespace {

constexpr int kIcollTagBase = 100;
constexpr std::uint64_t kIcollTagWindow = 64;

int icoll_instance_tag(std::uint64_t seq) {
  return kIcollTagBase + static_cast<int>(seq % kIcollTagWindow);
}

}  // namespace

/// One in-flight nonblocking collective on one rank. Owns the schedule,
/// its scratch area and the user-facing request; self-keeps-alive via the
/// shared_ptr captured in each completion hook.
class IcollSchedule : public std::enable_shared_from_this<IcollSchedule> {
 public:
  /// `type` and `op` serve the schedule's reduction steps, if any.
  IcollSchedule(const Comm& comm, CollSchedule schedule,
                const Datatype& type = Datatype::byte(),
                const Op& op = Op::sum())
      : comm_(comm),
        tag_(icoll_instance_tag(comm.shared_->next_icoll_seq(comm.rank()))),
        schedule_(std::move(schedule)),
        scratch_(schedule_.scratch_bytes),
        type_(type),
        op_(op),
        user_(std::make_shared<RequestState>(comm_.my_node())) {}

  /// Run the schedule over `data`; the request completes after its last
  /// step.
  Request start(std::byte* data) {
    data_ = data;
    advance();
    return Request(user_);
  }

  /// A bcast of a non-contiguous type runs over packed staging and
  /// unpacks into the user buffer once every step succeeded.
  std::vector<std::byte> staging;
  void* unpack_to = nullptr;
  int unpack_count = 0;

 private:
  std::byte* at(const CollXfer& xfer) {
    return (xfer.buf == CollBuf::kData ? data_ : scratch_.data()) +
           xfer.offset;
  }

  void track(Request request) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++pending_;
    }
    auto self = shared_from_this();
    request.state()->set_on_complete(
        [self](const MpiStatus& status) { self->on_done(status); });
  }

  /// Drop one pending unit; true when it was the last, so the caller now
  /// owns the next round.
  bool release(const MpiStatus& status) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (status.error != ErrorCode::kOk && error_ == ErrorCode::kOk) {
      error_ = status.error;
    }
    return --pending_ == 0;
  }

  void on_done(const MpiStatus& status) {
    if (release(status)) advance();
  }

  void advance();
  void finish();

  Comm comm_;
  const int tag_;
  CollSchedule schedule_;
  std::vector<std::byte> scratch_;
  std::byte* data_ = nullptr;
  Datatype type_;
  Op op_;
  std::shared_ptr<RequestState> user_;

  std::mutex mutex_;
  int pending_ = 0;
  ErrorCode error_ = ErrorCode::kOk;
  // The round in flight is steps [first_, next_).
  std::size_t first_ = 0;
  std::size_t next_ = 0;
};

void IcollSchedule::advance() {
  // Runs with pending_ == 0: nothing else is in flight, so the round
  // transitions race-free. A round whose sub-operations all completed
  // inline loops here instead of recursing.
  const std::vector<CollStep>& steps = schedule_.steps;
  do {
    // A recorded error short-circuits the remaining rounds — no
    // sub-operation is outstanding, so finishing now is safe.
    if (error_ != ErrorCode::kOk) {
      finish();
      return;
    }
    for (std::size_t i = first_; i < next_; ++i) {
      const CollStep& step = steps[i];
      // The send half lends the payload to the wire without staging, but
      // only reports completion after the bytes are injected (eager) or
      // transferred (rendezvous), so combining into it here is safe.
      if (step.reduce_count > 0) {
        op_.apply(scratch_.data(), data_ + step.reduce_offset,
                  step.reduce_count, type_);
      }
    }
    if (next_ == steps.size()) {
      finish();
      return;
    }
    first_ = next_++;
    if (!steps[first_].recv) {
      while (next_ < steps.size() && !steps[next_].recv) ++next_;
    }
    // Hold the issuing token while posting so an inline completion (eager
    // send, already-arrived receive) cannot advance mid-post.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++pending_;
    }
    for (std::size_t i = first_; i < next_; ++i) {
      const CollStep& step = steps[i];
      if (step.recv) {
        track(comm_.coll_irecv(at(*step.recv), step.recv->bytes,
                               step.recv->peer, tag_));
      }
      for (const CollXfer& send : step.sends) {
        track(comm_.coll_isend(at(send), send.bytes, send.peer, tag_));
      }
    }
  } while (release(MpiStatus{}));
}

void IcollSchedule::finish() {
  if (error_ == ErrorCode::kOk && unpack_to != nullptr) {
    // Unpack on the completing context — the buffer hand-off to the user
    // happens at wait/test, which orders after this hook's completion.
    type_.unpack(data_, unpack_count, unpack_to);
  }
  MpiStatus status;
  status.error = error_;
  user_->complete(status);
}

// --- public entry points -------------------------------------------------

namespace {

/// An already-decided request (single rank, FT fallback, entry error).
Request completed_request(sim::Node& node, ErrorCode error) {
  auto state = std::make_shared<RequestState>(node);
  MpiStatus status;
  status.error = error;
  state->complete(status);
  return Request(std::move(state));
}

}  // namespace

Request Comm::ibcast(void* buf, int count, const Datatype& type,
                     rank_t root) {
  MADMPI_CHECK(root >= 0 && root < size());
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    raise_error(entry);
    return completed_request(my_node(), entry.code());
  }
  if (size() == 1) return completed_request(my_node(), ErrorCode::kOk);
  if (ft_should_wrap()) {
    // FT mode degrades to the blocking survivable collective at initiation
    // time, mirroring the blocking collectives' explicit FT fallback.
    return completed_request(my_node(), bcast(buf, count, type, root).code());
  }
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  auto sched = std::make_shared<IcollSchedule>(
      *this, bcast_schedule(resolve_bcast(bytes), coll_topo(), rank_, size(),
                            root, bytes),
      type);
  if (type.is_contiguous()) return sched->start(static_cast<std::byte*>(buf));
  sched->staging.resize(bytes);
  if (rank_ == root) {
    type.pack(buf, count, sched->staging.data());
  } else {
    sched->unpack_to = buf;
    sched->unpack_count = count;
  }
  return sched->start(sched->staging.data());
}

Request Comm::iallreduce(const void* send_buf, void* recv_buf, int count,
                         const Datatype& type, const Op& op) {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    raise_error(entry);
    return completed_request(my_node(), entry.code());
  }
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  if (size() == 1) {
    std::memcpy(recv_buf, send_buf, bytes);
    return completed_request(my_node(), ErrorCode::kOk);
  }
  if (ft_should_wrap()) {
    return completed_request(
        my_node(), allreduce(send_buf, recv_buf, count, type, op).code());
  }
  MADMPI_CHECK_MSG(type.is_contiguous(),
                   "iallreduce requires a contiguous datatype");
  std::memcpy(recv_buf, send_buf, bytes);
  auto sched = std::make_shared<IcollSchedule>(
      *this,
      allreduce_schedule(resolve_allreduce(bytes, count), resolve_bcast(bytes),
                         coll_topo(), rank_, size(), type.size(), count),
      type, op);
  return sched->start(static_cast<std::byte*>(recv_buf));
}

Request Comm::ibarrier() {
  if (Status entry = ft_entry_check(); !entry.is_ok()) {
    raise_error(entry);
    return completed_request(my_node(), entry.code());
  }
  if (size() == 1) return completed_request(my_node(), ErrorCode::kOk);
  if (ft_should_wrap()) {
    return completed_request(my_node(), barrier().code());
  }
  auto sched = std::make_shared<IcollSchedule>(
      *this, barrier_schedule(resolve_barrier(), coll_topo(), rank_, size()));
  return sched->start(nullptr);
}

}  // namespace madmpi::mpi
