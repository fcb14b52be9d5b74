#include "tensor/tensor.h"

#include <cmath>
#include <sstream>

#include "tensor/kernels.h"

namespace tabrep {

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    TABREP_CHECK(d >= 0) << "negative dimension " << d;
    n *= d;
  }
  return n;
}

std::string ShapeToString(const std::vector<int64_t>& shape) {
  std::ostringstream os;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << "x";
    os << shape[i];
  }
  if (shape.empty()) os << "scalar";
  return os.str();
}

Tensor::Tensor() {
  // Every default Tensor points at this one zero-length buffer.
  static const std::shared_ptr<AlignedBuffer> empty =
      std::make_shared<AlignedBuffer>();
  data_ = empty;
}

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)),
      data_(std::make_shared<AlignedBuffer>(
          static_cast<size_t>(ShapeNumel(shape_)))) {}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape, std::vector<float> values) {
  TABREP_CHECK(ShapeNumel(shape) == static_cast<int64_t>(values.size()))
      << "shape " << ShapeToString(shape) << " vs " << values.size()
      << " values";
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::make_shared<AlignedBuffer>(values.data(), values.size());
  return t;
}

Tensor Tensor::Of(std::initializer_list<float> values) {
  return FromVector({static_cast<int64_t>(values.size())},
                    std::vector<float>(values));
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.NextGaussian() * stddev;
  return t;
}

Tensor Tensor::Uniform(std::vector<int64_t> shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = rng.NextUniform(lo, hi);
  return t;
}

int64_t Tensor::size(int64_t axis) const {
  if (axis < 0) axis += dim();
  TABREP_CHECK(axis >= 0 && axis < dim())
      << "axis " << axis << " out of range for " << ShapeToString(shape_);
  return shape_[static_cast<size_t>(axis)];
}

Tensor Tensor::Clone() const {
  Tensor t;
  t.shape_ = shape_;
  t.data_ = std::make_shared<AlignedBuffer>(data_->data(), data_->size());
  return t;
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) const {
  TABREP_CHECK(ShapeNumel(new_shape) == numel())
      << "cannot reshape " << ShapeToString(shape_) << " to "
      << ShapeToString(new_shape);
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

void Tensor::Fill(float value) { kernels::Fill(data(), numel(), value); }

void Tensor::Add(const Tensor& other, float scale) {
  TABREP_CHECK(numel() == other.numel())
      << "Add: " << ShapeToString(shape_) << " vs "
      << ShapeToString(other.shape_);
  kernels::Axpy(data(), other.data(), scale, numel());
}

void Tensor::Scale(float scale) { kernels::Scale(data(), numel(), scale); }

bool Tensor::AllClose(const Tensor& other, float tol) const {
  if (!SameShape(other)) return false;
  for (int64_t i = 0; i < numel(); ++i) {
    if (std::fabs((*this)[i] - other[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::ToString(int64_t max_elems) const {
  std::ostringstream os;
  os << "Tensor[" << ShapeToString(shape_) << "]{";
  const int64_t n = std::min(numel(), max_elems);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << (*this)[i];
  }
  if (numel() > max_elems) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace tabrep
