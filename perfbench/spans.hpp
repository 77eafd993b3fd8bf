// In-memory span recorder for the benchmark's traced run (--trace 1).
//
// Spans are opened only by the benchmark's own code, around its calls into
// each layer's public functions. A span is recorded when tracing is on at
// the moment it opens; its parent is the innermost recorded span still open
// on the same thread. Recording
// takes no lock on the hot path: each thread appends to its own
// buffer, and collect() gathers the buffers once the recording threads have
// finished. With tracing never armed, a Span costs one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = nullptr;  // "<layer>.<call>", a string literal
  std::uint64_t id = 0;        // unique, > 0
  std::uint64_t parent = 0;    // 0 for a root
  std::uint64_t op = 0;        // op id shared by the spans of one op
  std::uint32_t thread = 0;    // recording thread, in registration order
  std::int64_t wall_start_ns = 0;
  std::int64_t wall_end_ns = 0;
  double virt_start_us = 0.0;  // the simulated node clock; 0 when the
  double virt_end_us = 0.0;    // span has no clock (host-only calls)
};

namespace trace {

/// Arm the recorder for this process. Until armed, spans cost nothing.
void arm();
void set_enabled(bool on);
bool enabled();
/// Spans recorded so far (all threads).
std::uint64_t recorded();

/// Open a span; returns its id, or 0 when it is not recorded.
std::uint64_t open(const char* name, std::uint64_t op, double virt_start_us);
/// Close the innermost recorded span of the calling thread.
void close(std::uint64_t id, double virt_end_us);

/// Every recorded span. Call only after the recording threads finished.
std::vector<SpanRecord> collect();

/// Self time of each span in `spans` (same order): its wall duration minus
/// the part of that interval covered by its children.
std::vector<std::int64_t> self_ns(const std::vector<SpanRecord>& spans);

/// Write the spans (with self times) as CSV. Returns false on I/O error.
bool write_csv(const std::string& path, const std::vector<SpanRecord>& spans,
               const std::vector<std::int64_t>& self);

std::int64_t now_ns();

extern std::atomic<bool> g_armed;

}  // namespace trace

/// RAII span. `virt_now` returns the virtual time (µs) to stamp; it is
/// called only when the span is recorded.
template <typename VirtNow>
class Span {
 public:
  Span(const char* name, std::uint64_t op, VirtNow virt_now)
      : virt_now_(virt_now) {
    if (trace::g_armed.load(std::memory_order_relaxed)) {
      id_ = trace::open(name, op, virt_now_());
    }
  }
  ~Span() {
    if (id_ != 0) trace::close(id_, virt_now_());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  VirtNow virt_now_;
  std::uint64_t id_ = 0;
};

/// Virtual-time source for spans of host-only calls.
inline double no_virt() { return 0.0; }

}  // namespace perfbench
