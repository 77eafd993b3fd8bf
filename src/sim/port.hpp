// Receive endpoints of the simulated fabric.
//
// A port is a plain frame queue with two ways to learn of an arrival: a
// blocking take (the raw Madeleine receive loop, a handler waiting for
// the data frames of the message it is consuming), and a doorbell. The
// doorbell is how the factorized poller (marcel/poll_server.hpp) hears of
// a frame without parking a thread on the queue: deliver() rings it
// after the frame is queued, so whoever the ring wakes finds the frame.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "sim/frame.hpp"

namespace madmpi::sim {

/// Rung by a port on every delivery and on close. ring() runs under the
/// port's lock, so it must not block and must take only locks that are
/// never held while touching a port.
class Doorbell {
 public:
  virtual void ring() = 0;

 protected:
  ~Doorbell() = default;
};

/// A Port is an addressable receive queue on a node. Drivers allocate one
/// port per Madeleine channel (or per baseline-device endpoint); all remote
/// peers of that channel deliver into the same port, which preserves
/// per-connection FIFO order (a single queue cannot reorder a source).
class Port {
 public:
  Port() = default;
  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Deliver a frame (called by WirePath::transmit).
  void deliver(Frame frame) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      frames_.push_back(std::move(frame));
      // Rung under the lock: set_doorbell(nullptr) then guarantees that no
      // ring is still running against a detached doorbell.
      if (doorbell_ != nullptr) doorbell_->ring();
    }
    available_.notify_all();
  }

  /// Attach (or, with nullptr, detach) the doorbell rung on arrivals.
  void set_doorbell(Doorbell* doorbell) {
    std::lock_guard<std::mutex> lock(mutex_);
    doorbell_ = doorbell;
  }

  /// Non-blocking take (used by polling loops).
  std::optional<Frame> try_take() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (frames_.empty()) return std::nullopt;
    Frame frame = std::move(frames_.front());
    frames_.pop_front();
    return frame;
  }

  /// Blocking take; empty optional means the port was closed and drained.
  std::optional<Frame> take_blocking() {
    std::unique_lock<std::mutex> lock(mutex_);
    available_.wait(lock, [this] { return closed_ || !frames_.empty(); });
    if (frames_.empty()) return std::nullopt;
    Frame frame = std::move(frames_.front());
    frames_.pop_front();
    return frame;
  }

  bool has_frame() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return !frames_.empty();
  }

  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_.size();
  }

  /// Wakes blocked receivers; they drain remaining frames then observe EOF.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      if (doorbell_ != nullptr) doorbell_->ring();
    }
    available_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::deque<Frame> frames_;
  bool closed_ = false;
  Doorbell* doorbell_ = nullptr;
};

}  // namespace madmpi::sim
