#ifndef TABREP_TENSOR_ALIGNED_BUFFER_H_
#define TABREP_TENSOR_ALIGNED_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

namespace tabrep {

/// A fixed-size float array whose storage starts on a 64-byte boundary
/// (one cache line, and wide enough for any current SIMD width). This
/// is the backing store for Tensor: each non-empty Tensor allocates
/// one from the heap and shares it with its copies. The kernels layer
/// (tensor/kernels.h) relies on the alignment for aligned vector loads
/// of packed panels and to keep rows from straddling cache lines.
class AlignedBuffer {
 public:
  static constexpr std::size_t kAlignment = 64;

  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t n, float value = 0.0f)
      : size_(n), data_(Allocate(n)) {
    std::fill_n(data_, n, value);
  }

  AlignedBuffer(const float* src, std::size_t n)
      : size_(n), data_(Allocate(n)) {
    if (n != 0) std::memcpy(data_, src, n * sizeof(float));
  }

  explicit AlignedBuffer(const std::vector<float>& values)
      : AlignedBuffer(values.data(), values.size()) {}

  AlignedBuffer(const AlignedBuffer& other)
      : AlignedBuffer(other.data_, other.size_) {}
  AlignedBuffer(AlignedBuffer&& other) noexcept { Swap(other); }
  AlignedBuffer& operator=(AlignedBuffer other) noexcept {
    Swap(other);
    return *this;
  }

  ~AlignedBuffer() { Deallocate(data_); }

  void Swap(AlignedBuffer& other) noexcept {
    std::swap(size_, other.size_);
    std::swap(data_, other.data_);
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  float* begin() { return data_; }
  float* end() { return data_ + size_; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + size_; }

 private:
  static float* Allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<float*>(
        ::operator new(n * sizeof(float), std::align_val_t(kAlignment)));
  }
  static void Deallocate(float* p) {
    if (p != nullptr) ::operator delete(p, std::align_val_t(kAlignment));
  }

  std::size_t size_ = 0;
  float* data_ = nullptr;
};

}  // namespace tabrep

#endif  // TABREP_TENSOR_ALIGNED_BUFFER_H_
