#include "mpi/datatype.hpp"

#include <algorithm>
#include <cstring>

#include "common/status.hpp"

namespace madmpi::mpi {

struct Datatype::Impl {
  std::string name;
  TypeClass type_class = TypeClass::kDerived;
  std::size_t size = 0;
  std::size_t extent = 0;
  std::vector<Segment> segments;  // coalesced, in packing order

  bool contiguous() const {
    return segments.size() == 1 && segments[0].offset == 0 &&
           segments[0].length == size && extent == size;
  }
};

namespace {

/// Merge adjacent runs so pack loops touch memory in as few memcpys as
/// possible (important: derived types are used in the stencil examples).
/// Runs only merge when their primitive widths match, so byte-swapping
/// for heterogeneity stays well-defined.
std::vector<Datatype::Segment> coalesce(
    std::vector<Datatype::Segment> segments) {
  std::vector<Datatype::Segment> out;
  for (const auto& segment : segments) {
    if (segment.length == 0) continue;
    if (!out.empty() &&
        out.back().offset + out.back().length == segment.offset &&
        out.back().width == segment.width) {
      out.back().length += segment.length;
    } else {
      out.push_back(segment);
    }
  }
  return out;
}

std::shared_ptr<const Datatype::Impl> make_primitive(std::string name,
                                                     TypeClass type_class,
                                                     std::size_t size) {
  auto impl = std::make_shared<Datatype::Impl>();
  impl->name = std::move(name);
  impl->type_class = type_class;
  impl->size = size;
  impl->extent = size;
  impl->segments = {{0, size, size}};
  return impl;
}

}  // namespace

#define MADMPI_PRIMITIVE(fn, name, type_class, size)               \
  Datatype Datatype::fn() {                                        \
    static const auto impl = make_primitive(name, type_class, size); \
    return Datatype(impl);                                         \
  }

MADMPI_PRIMITIVE(int8, "int8", TypeClass::kInt8, 1)
MADMPI_PRIMITIVE(uint8, "uint8", TypeClass::kUInt8, 1)
MADMPI_PRIMITIVE(int32, "int32", TypeClass::kInt32, 4)
MADMPI_PRIMITIVE(uint32, "uint32", TypeClass::kUInt32, 4)
MADMPI_PRIMITIVE(int64, "int64", TypeClass::kInt64, 8)
MADMPI_PRIMITIVE(uint64, "uint64", TypeClass::kUInt64, 8)
MADMPI_PRIMITIVE(float32, "float32", TypeClass::kFloat, 4)
MADMPI_PRIMITIVE(float64, "float64", TypeClass::kDouble, 8)
MADMPI_PRIMITIVE(byte, "byte", TypeClass::kByte, 1)

#undef MADMPI_PRIMITIVE

Datatype Datatype::contiguous(int count, const Datatype& base) {
  MADMPI_CHECK(count >= 0);
  auto impl = std::make_shared<Impl>();
  impl->name = "contiguous(" + std::to_string(count) + "," +
               base.impl_->name + ")";
  impl->type_class = base.impl_->type_class;
  impl->size = base.impl_->size * static_cast<std::size_t>(count);
  impl->extent = base.impl_->extent * static_cast<std::size_t>(count);
  std::vector<Segment> segments;
  for (int i = 0; i < count; ++i) {
    const std::size_t shift = base.impl_->extent * static_cast<std::size_t>(i);
    for (const auto& segment : base.impl_->segments) {
      segments.push_back(
          {segment.offset + shift, segment.length, segment.width});
    }
  }
  impl->segments = coalesce(std::move(segments));
  return Datatype(std::move(impl));
}

Datatype Datatype::vector(int count, int block_length, int stride,
                          const Datatype& base) {
  MADMPI_CHECK(count >= 0 && block_length >= 0);
  auto impl = std::make_shared<Impl>();
  impl->name = "vector(" + std::to_string(count) + "," +
               std::to_string(block_length) + "," + std::to_string(stride) +
               "," + base.impl_->name + ")";
  impl->type_class = base.impl_->type_class;
  impl->size = base.impl_->size * static_cast<std::size_t>(count) *
               static_cast<std::size_t>(block_length);
  std::vector<Segment> segments;
  std::ptrdiff_t max_end = 0;
  for (int i = 0; i < count; ++i) {
    const std::ptrdiff_t block_start =
        static_cast<std::ptrdiff_t>(base.impl_->extent) * stride * i;
    for (int j = 0; j < block_length; ++j) {
      const std::ptrdiff_t shift =
          block_start +
          static_cast<std::ptrdiff_t>(base.impl_->extent) * j;
      MADMPI_CHECK_MSG(shift >= 0, "negative strides are not supported");
      for (const auto& segment : base.impl_->segments) {
        segments.push_back({segment.offset + static_cast<std::size_t>(shift),
                            segment.length, segment.width});
      }
      max_end = std::max(
          max_end, shift + static_cast<std::ptrdiff_t>(base.impl_->extent));
    }
  }
  impl->extent = static_cast<std::size_t>(max_end);
  impl->segments = coalesce(std::move(segments));
  return Datatype(std::move(impl));
}

Datatype Datatype::indexed(std::span<const int> block_lengths,
                           std::span<const int> displacements,
                           const Datatype& base) {
  MADMPI_CHECK(block_lengths.size() == displacements.size());
  auto impl = std::make_shared<Impl>();
  impl->name = "indexed(" + std::to_string(block_lengths.size()) + "," +
               base.impl_->name + ")";
  impl->type_class = base.impl_->type_class;
  std::vector<Segment> segments;
  std::size_t total = 0;
  std::size_t max_end = 0;
  for (std::size_t b = 0; b < block_lengths.size(); ++b) {
    MADMPI_CHECK(block_lengths[b] >= 0 && displacements[b] >= 0);
    for (int j = 0; j < block_lengths[b]; ++j) {
      const std::size_t shift =
          base.impl_->extent *
          (static_cast<std::size_t>(displacements[b]) +
           static_cast<std::size_t>(j));
      for (const auto& segment : base.impl_->segments) {
        segments.push_back(
            {segment.offset + shift, segment.length, segment.width});
      }
      max_end = std::max(max_end, shift + base.impl_->extent);
    }
    total += base.impl_->size * static_cast<std::size_t>(block_lengths[b]);
  }
  impl->size = total;
  impl->extent = max_end;
  impl->segments = coalesce(std::move(segments));
  return Datatype(std::move(impl));
}

Datatype Datatype::create_struct(
    std::span<const int> block_lengths,
    std::span<const std::ptrdiff_t> byte_displacements,
    std::span<const Datatype> types) {
  MADMPI_CHECK(block_lengths.size() == byte_displacements.size());
  MADMPI_CHECK(block_lengths.size() == types.size());
  auto impl = std::make_shared<Impl>();
  impl->name = "struct(" + std::to_string(types.size()) + ")";
  impl->type_class = TypeClass::kDerived;
  std::vector<Segment> segments;
  std::size_t total = 0;
  std::size_t max_end = 0;
  for (std::size_t b = 0; b < types.size(); ++b) {
    MADMPI_CHECK(block_lengths[b] >= 0 && byte_displacements[b] >= 0);
    const auto& base = *types[b].impl_;
    for (int j = 0; j < block_lengths[b]; ++j) {
      const std::size_t shift =
          static_cast<std::size_t>(byte_displacements[b]) +
          base.extent * static_cast<std::size_t>(j);
      for (const auto& segment : base.segments) {
        segments.push_back(
            {segment.offset + shift, segment.length, segment.width});
      }
      max_end = std::max(max_end, shift + base.extent);
    }
    total += base.size * static_cast<std::size_t>(block_lengths[b]);
  }
  impl->size = total;
  impl->extent = max_end;
  // Struct packing order follows declaration order, not address order, so
  // do NOT sort; only coalesce truly adjacent runs.
  impl->segments = coalesce(std::move(segments));
  return Datatype(std::move(impl));
}

Datatype Datatype::resized(const Datatype& base, std::size_t new_extent) {
  auto impl = std::make_shared<Impl>(*base.impl_);
  impl->name = "resized(" + base.impl_->name + ")";
  impl->extent = new_extent;
  return Datatype(std::move(impl));
}

std::size_t Datatype::size() const { return impl_->size; }
std::size_t Datatype::extent() const { return impl_->extent; }
bool Datatype::is_contiguous() const { return impl_->contiguous(); }
TypeClass Datatype::type_class() const { return impl_->type_class; }
const std::string& Datatype::name() const { return impl_->name; }
const std::vector<Datatype::Segment>& Datatype::segments() const {
  return impl_->segments;
}

void Datatype::swap_packed(std::byte* wire, int count) const {
  std::byte* at = wire;
  for (int i = 0; i < count; ++i) {
    for (const auto& segment : impl_->segments) {
      if (segment.width <= 1) {
        at += segment.length;
        continue;
      }
      MADMPI_CHECK(segment.length % segment.width == 0);
      for (std::size_t chunk = 0; chunk < segment.length;
           chunk += segment.width) {
        std::reverse(at + chunk, at + chunk + segment.width);
      }
      at += segment.length;
    }
  }
}

void Datatype::swap_packed_bytes(std::byte* wire, std::size_t bytes) const {
  const std::size_t elem = impl_->size;
  if (elem == 0 || bytes == 0) return;
  const std::size_t whole = bytes / elem;
  swap_packed(wire, static_cast<int>(whole));

  // The ragged tail: a partial final element. Walk its segments, swapping
  // the complete primitives it contains; a primitive cut mid-width is
  // reversed over the bytes present (the best a byte-order pass can do —
  // the value is unrecoverable either way, but no byte stays wire-order).
  std::size_t rest = bytes % elem;
  std::byte* at = wire + whole * elem;
  for (const auto& segment : impl_->segments) {
    if (rest == 0) break;
    const std::size_t len = std::min(segment.length, rest);
    if (segment.width > 1) {
      std::size_t chunk = 0;
      for (; chunk + segment.width <= len; chunk += segment.width) {
        std::reverse(at + chunk, at + chunk + segment.width);
      }
      if (chunk < len) std::reverse(at + chunk, at + len);
    }
    at += len;
    rest -= len;
  }
}

void Datatype::pack(const void* src, int count, std::byte* dst) const {
  // A zero-count transfer may come with null buffers: touch nothing.
  if (count == 0) return;
  const auto* base = static_cast<const std::byte*>(src);
  if (is_contiguous()) {
    std::memcpy(dst, base, impl_->size * static_cast<std::size_t>(count));
    return;
  }
  std::byte* out = dst;
  for (int i = 0; i < count; ++i) {
    const std::byte* element = base + impl_->extent * static_cast<std::size_t>(i);
    for (const auto& segment : impl_->segments) {
      std::memcpy(out, element + segment.offset, segment.length);
      out += segment.length;
    }
  }
}

void Datatype::unpack(const std::byte* src, int count, void* dst) const {
  if (count == 0) return;
  auto* base = static_cast<std::byte*>(dst);
  if (is_contiguous()) {
    std::memcpy(base, src, impl_->size * static_cast<std::size_t>(count));
    return;
  }
  const std::byte* in = src;
  for (int i = 0; i < count; ++i) {
    std::byte* element = base + impl_->extent * static_cast<std::size_t>(i);
    for (const auto& segment : impl_->segments) {
      std::memcpy(element + segment.offset, in, segment.length);
      in += segment.length;
    }
  }
}

}  // namespace madmpi::mpi
