#ifndef TABREP_TENSOR_ARENA_H_
#define TABREP_TENSOR_ARENA_H_

// tabrep::mem — a per-thread bump allocator for transient scratch
// that never escapes the current call (packing staging, id buffers,
// score rows). A ScratchScope records the arena watermark on entry and
// rewinds it on exit, so steady-state hot loops reuse the same slab
// bytes with zero heap traffic. Tensor storage does not come from here:
// every Tensor owns a plain heap AlignedBuffer (see tensor/tensor.h).
//
// Counters (tabrep.mem.*): arena.bytes (cumulative bytes handed out —
// workload-deterministic) and the arena.reserved_bytes gauge (slab
// memory held).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/aligned_buffer.h"

namespace tabrep::mem {

/// Per-thread bump allocator. Allocations are 64-byte aligned and
/// valid until the enclosing ScratchScope (or the thread) ends. Grows
/// by geometric slabs; slabs are kept for the thread's lifetime so a
/// warmed-up loop never allocates.
class Arena {
 public:
  /// The calling thread's arena (created on first use).
  static Arena& ThreadLocal();

  /// `bytes` of 64-byte-aligned storage. The contents are
  /// unspecified; the pointer is invalidated by ResetTo below the
  /// current watermark.
  void* Alloc(std::size_t bytes);

  /// Typed convenience: `count` default-uninitialized Ts.
  template <typename T>
  T* AllocSpan(std::size_t count) {
    return static_cast<T*>(Alloc(count * sizeof(T)));
  }

  /// Opaque position for ScratchScope save/restore.
  struct Mark {
    std::size_t slab = 0;
    std::size_t offset = 0;
  };
  Mark Position() const { return {cur_slab_, cur_offset_}; }
  void ResetTo(Mark mark);

  /// Total slab bytes this arena holds.
  std::size_t reserved_bytes() const { return reserved_; }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

 private:
  Arena() = default;

  struct Slab {
    std::unique_ptr<float[]> storage;  // float grain keeps 4-byte units
    std::size_t bytes = 0;
  };

  void AddSlab(std::size_t min_bytes);

  std::vector<Slab> slabs_;
  std::size_t cur_slab_ = 0;
  std::size_t cur_offset_ = 0;
  std::size_t reserved_ = 0;
};

/// RAII watermark: everything the thread arena hands out inside this
/// scope is reclaimed (not freed — rewound for reuse) on destruction.
/// Nests freely; kernels running inside ParallelFor chunks open their
/// own scope on the worker thread.
class ScratchScope {
 public:
  ScratchScope() : arena_(Arena::ThreadLocal()), mark_(arena_.Position()) {}
  ~ScratchScope() { arena_.ResetTo(mark_); }

  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// Shorthand for the common case: `n` floats of thread-arena scratch.
inline float* ArenaFloats(std::size_t n) {
  return Arena::ThreadLocal().AllocSpan<float>(n);
}

}  // namespace tabrep::mem

#endif  // TABREP_TENSOR_ARENA_H_
