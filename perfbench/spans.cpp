#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench::trace {

std::atomic<bool> g_armed{false};

namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> open;  // indices into spans, innermost last
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_recorded{0};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto fresh = std::make_unique<ThreadBuffer>();
    fresh->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    fresh->index = static_cast<std::uint32_t>(g_registry.size());
    buffer = fresh.get();
    g_registry.push_back(std::move(fresh));
  }
  return *buffer;
}

}  // namespace

void arm() { g_armed.store(true, std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
std::uint64_t recorded() { return g_recorded.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t open(const char* name, std::uint64_t op, double virt_start_us) {
  if (!g_enabled.load(std::memory_order_relaxed)) return 0;
  ThreadBuffer& buffer = this_thread_buffer();
  SpanRecord record;
  record.name = name;
  record.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record.parent =
      buffer.open.empty() ? 0 : buffer.spans[buffer.open.back()].id;
  record.op = op;
  record.thread = buffer.index;
  record.virt_start_us = virt_start_us;
  buffer.open.push_back(buffer.spans.size());
  buffer.spans.push_back(record);
  g_recorded.fetch_add(1, std::memory_order_relaxed);
  // Stamp last, so the recorder's own work stays outside the span.
  buffer.spans.back().wall_start_ns = now_ns();
  return record.id;
}

void close(std::uint64_t id, double virt_end_us) {
  const std::int64_t end = now_ns();
  ThreadBuffer& buffer = this_thread_buffer();
  SpanRecord& record = buffer.spans[buffer.open.back()];
  if (record.id != id) {
    std::fprintf(stderr, "perfbench: span %s closed out of order\n",
                 record.name);
    std::abort();
  }
  buffer.open.pop_back();
  record.wall_end_ns = end;
  record.virt_end_us = virt_end_us;
}

std::vector<SpanRecord> collect() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_registry) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::vector<std::int64_t> self_ns(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const SpanRecord& span : spans) {
    const auto parent = index_of.find(span.parent);
    if (span.parent == 0 || parent == index_of.end()) continue;
    children[parent->second].emplace_back(span.wall_start_ns,
                                          span.wall_end_ns);
  }

  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].wall_start_ns;
    const std::int64_t hi = spans[i].wall_end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union so far
    for (const auto& [start, end] : kids) {
      const std::int64_t a = std::max(start, reach);
      const std::int64_t b = std::min(end, hi);
      if (b > a) covered += b - a;
      reach = std::max(reach, std::min(end, hi));
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

bool write_csv(const std::string& path, const std::vector<SpanRecord>& spans,
               const std::vector<std::int64_t>& self) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "id,parent,op,thread,name,wall_start_ns,wall_end_ns,self_ns,"
               "virt_start_us,virt_end_us\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out, "%llu,%llu,%llu,%u,%s,%lld,%lld,%lld,%.6f,%.6f\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.thread, s.name,
                 static_cast<long long>(s.wall_start_ns),
                 static_cast<long long>(s.wall_end_ns),
                 static_cast<long long>(self[i]), s.virt_start_us,
                 s.virt_end_us);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench::trace
