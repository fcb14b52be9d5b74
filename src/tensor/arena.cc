#include "tensor/arena.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace tabrep::mem {

namespace {

constexpr std::size_t kAlign = AlignedBuffer::kAlignment;
constexpr std::size_t kMinSlabBytes = 1 << 20;  // 1 MiB

std::size_t RoundUp(std::size_t bytes) {
  return (bytes + kAlign - 1) & ~(kAlign - 1);
}

obs::Counter& ArenaBytesCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.mem.arena.bytes");
  return c;
}

}  // namespace

Arena& Arena::ThreadLocal() {
  thread_local Arena arena;
  return arena;
}

void Arena::AddSlab(std::size_t min_bytes) {
  // Geometric growth keeps the slab count logarithmic in peak demand.
  std::size_t bytes = std::max(min_bytes, kMinSlabBytes);
  if (!slabs_.empty()) bytes = std::max(bytes, slabs_.back().bytes * 2);
  Slab slab;
  slab.bytes = bytes;
  slab.storage = std::make_unique<float[]>(bytes / sizeof(float) + kAlign);
  slabs_.push_back(std::move(slab));
  reserved_ += bytes;
  static obs::Gauge& reserved_gauge =
      obs::Registry::Get().gauge("tabrep.mem.arena.reserved_bytes");
  reserved_gauge.Set(static_cast<double>(reserved_));
}

void* Arena::Alloc(std::size_t bytes) {
  bytes = RoundUp(std::max<std::size_t>(bytes, 1));
  ArenaBytesCounter().Increment(bytes);
  while (true) {
    if (cur_slab_ < slabs_.size()) {
      Slab& slab = slabs_[cur_slab_];
      // The slab base is only float-aligned; bump the first offset up
      // to the next 64-byte boundary (the slab over-allocates by one
      // alignment unit to leave room).
      const auto base = reinterpret_cast<std::uintptr_t>(slab.storage.get());
      const std::size_t lead = RoundUp(base) - base;
      if (lead + cur_offset_ + bytes <= slab.bytes) {
        void* p = reinterpret_cast<void*>(base + lead + cur_offset_);
        cur_offset_ += bytes;
        return p;
      }
      ++cur_slab_;
      cur_offset_ = 0;
      continue;
    }
    AddSlab(bytes);
    cur_slab_ = slabs_.size() - 1;
    cur_offset_ = 0;
  }
}

void Arena::ResetTo(Mark mark) {
  TABREP_CHECK(mark.slab < slabs_.size() || mark.offset == 0)
      << "arena mark past the slab list";
  cur_slab_ = mark.slab;
  cur_offset_ = mark.offset;
}

}  // namespace tabrep::mem
