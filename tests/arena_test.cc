#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "obs/metrics.h"
#include "tensor/arena.h"
#include "tensor/tensor.h"

// Counts this thread's unaligned operator new calls (the path
// std::make_shared takes), so a test can check that a Tensor was built
// without touching the heap.
thread_local std::size_t t_heap_allocations = 0;

void* operator new(std::size_t bytes) {
  ++t_heap_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tabrep {
namespace {

TEST(ArenaTest, AllocationsAre64ByteAligned) {
  mem::ScratchScope scope;
  for (std::size_t bytes : {1u, 7u, 64u, 100u, 4096u}) {
    void* p = mem::Arena::ThreadLocal().Alloc(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % AlignedBuffer::kAlignment, 0u)
        << bytes << " bytes";
    // The storage must be writable end to end.
    std::memset(p, 0xAB, bytes);
  }
}

TEST(ArenaTest, ScratchScopeRewindsToTheSameBytes) {
  // Warm the arena so both scopes below run in the steady state.
  { mem::ScratchScope warm;  (void)mem::ArenaFloats(1 << 12); }
  float* first = nullptr;
  {
    mem::ScratchScope scope;
    first = mem::ArenaFloats(1 << 12);
    first[0] = 1.0f;
  }
  float* second = nullptr;
  {
    mem::ScratchScope scope;
    second = mem::ArenaFloats(1 << 12);
  }
  // Same watermark on entry -> the exact same slab bytes come back.
  EXPECT_EQ(first, second);
}

TEST(ArenaTest, NestedScopesRewindIndependently) {
  mem::ScratchScope outer;
  float* a = mem::ArenaFloats(128);
  float* inner_ptr = nullptr;
  {
    mem::ScratchScope inner;
    inner_ptr = mem::ArenaFloats(256);
    EXPECT_NE(inner_ptr, a);
  }
  // The inner scope rewound past its own allocation only.
  float* b = mem::ArenaFloats(256);
  EXPECT_EQ(b, inner_ptr);
  a[0] = 2.0f;  // outer allocation still live and writable
}

TEST(ArenaTest, GrowsSlabsForLargeRequests) {
  mem::Arena& arena = mem::Arena::ThreadLocal();
  const std::size_t before = arena.reserved_bytes();
  mem::ScratchScope scope;
  const std::size_t big = 3u << 20;  // larger than the 1 MiB min slab
  float* p = arena.AllocSpan<float>(big / sizeof(float));
  ASSERT_NE(p, nullptr);
  p[0] = 1.0f;
  p[big / sizeof(float) - 1] = 2.0f;
  EXPECT_GE(arena.reserved_bytes(), before);
  EXPECT_GE(arena.reserved_bytes(), big);
}

TEST(ArenaTest, ArenaBytesCounterTracksRequests) {
  obs::Counter& bytes = obs::Registry::Get().counter("tabrep.mem.arena.bytes");
  const uint64_t before = bytes.value();
  mem::ScratchScope scope;
  (void)mem::ArenaFloats(1000);
  EXPECT_GE(bytes.value() - before, 1000u * sizeof(float));
}

TEST(TensorStorageTest, StorageIs64ByteAligned) {
  for (int64_t n : {1, 17, 64, 1000}) {
    Tensor t({n});
    ASSERT_EQ(t.numel(), n);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % AlignedBuffer::kAlignment,
              0u)
        << n << " floats";
  }
}

TEST(TensorStorageTest, NewTensorsAreZeroFilled) {
  Tensor t({8});
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = 123.0f;
  t = Tensor();  // release the written buffer
  Tensor u({8});  // same size, but Tensor(shape) means zeros
  for (int64_t i = 0; i < u.numel(); ++i) EXPECT_EQ(u[i], 0.0f);
}

TEST(TensorStorageTest, DefaultTensorsShareOneEmptyBuffer) {
  Tensor warm;  // the shared empty buffer is created on first use
  const std::size_t before = t_heap_allocations;
  Tensor a;
  Tensor b;
  // Both defaults alias the shared empty buffer instead of allocating.
  EXPECT_EQ(t_heap_allocations, before);
  EXPECT_EQ(a.numel(), 0);
  EXPECT_EQ(b.numel(), 0);
}

}  // namespace
}  // namespace tabrep
