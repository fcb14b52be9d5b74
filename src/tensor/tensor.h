#ifndef TABREP_TENSOR_TENSOR_H_
#define TABREP_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "tensor/aligned_buffer.h"

namespace tabrep {

/// A dense row-major float32 tensor. Copies are cheap (the buffer is
/// shared); use Clone() for a deep copy. All tensors are contiguous —
/// shape-changing ops either reinterpret (Reshape) or copy.
///
/// Storage is a 64-byte-aligned AlignedBuffer so the tensor/kernels.h
/// layer can rely on cache-line-aligned bases. Every non-empty tensor
/// allocates its buffer from the heap, and the buffer is freed when the
/// last tensor sharing it dies.
///
/// This is the numeric substrate for the whole library: the nn/ and
/// models/ layers build autograd on top of it (see tensor/autograd.h),
/// and inference paths use the forward-only ops in tensor/ops.h.
class Tensor {
 public:
  /// An empty 0-d tensor with no elements. All default-constructed
  /// tensors share one static empty buffer (no allocation).
  Tensor();

  /// Zero-filled tensor of the given shape, with its own heap buffer.
  explicit Tensor(std::vector<int64_t> shape);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  // -- Factories --------------------------------------------------------

  static Tensor Zeros(std::vector<int64_t> shape) { return Tensor(std::move(shape)); }
  static Tensor Ones(std::vector<int64_t> shape) { return Full(std::move(shape), 1.0f); }
  static Tensor Full(std::vector<int64_t> shape, float value);
  /// Copies `values` into aligned storage; its length must equal the
  /// shape's element count.
  static Tensor FromVector(std::vector<int64_t> shape, std::vector<float> values);
  /// 1-D tensor from a brace list, e.g. Tensor::Of({1, 2, 3}).
  static Tensor Of(std::initializer_list<float> values);
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(std::vector<int64_t> shape, Rng& rng, float stddev = 1.0f);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor Uniform(std::vector<int64_t> shape, Rng& rng, float lo, float hi);

  // -- Shape ------------------------------------------------------------

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t axis) const;
  int64_t numel() const { return static_cast<int64_t>(data_->size()); }
  bool empty() const { return data_->empty(); }

  /// Number of rows/cols; valid only for 2-D tensors.
  int64_t rows() const { TABREP_CHECK(dim() == 2); return shape_[0]; }
  int64_t cols() const { TABREP_CHECK(dim() == 2); return shape_[1]; }

  // -- Element access ---------------------------------------------------

  float* data() { return data_->data(); }
  const float* data() const { return data_->data(); }

  float& operator[](int64_t i) { return (*data_)[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return (*data_)[static_cast<size_t>(i)]; }

  /// 2-D indexed access.
  float& at(int64_t r, int64_t c) {
    return (*data_)[static_cast<size_t>(r * shape_[1] + c)];
  }
  float at(int64_t r, int64_t c) const {
    return (*data_)[static_cast<size_t>(r * shape_[1] + c)];
  }
  /// 3-D indexed access.
  float& at(int64_t i, int64_t j, int64_t k) {
    return (*data_)[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
  }
  float at(int64_t i, int64_t j, int64_t k) const {
    return (*data_)[static_cast<size_t>((i * shape_[1] + j) * shape_[2] + k)];
  }

  // -- Whole-tensor operations -----------------------------------------

  /// Deep copy with its own buffer.
  Tensor Clone() const;

  /// Shares the buffer under a new shape with the same element count.
  Tensor Reshape(std::vector<int64_t> new_shape) const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// Adds `other * scale` elementwise into this tensor (axpy).
  void Add(const Tensor& other, float scale = 1.0f);

  /// Multiplies every element by `scale`.
  void Scale(float scale);

  /// True if shapes are identical.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// True if all elements differ by at most `tol`.
  bool AllClose(const Tensor& other, float tol = 1e-5f) const;

  /// Compact debug rendering, e.g. "Tensor[2x3]{1, 2, 3, ...}".
  std::string ToString(int64_t max_elems = 8) const;

 private:
  std::vector<int64_t> shape_;
  std::shared_ptr<AlignedBuffer> data_;
};

/// Element count implied by a shape.
int64_t ShapeNumel(const std::vector<int64_t>& shape);

/// "2x3x4" rendering of a shape.
std::string ShapeToString(const std::vector<int64_t>& shape);

}  // namespace tabrep

#endif  // TABREP_TENSOR_TENSOR_H_
