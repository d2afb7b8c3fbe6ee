#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace sf {
namespace {

/// All Tensor storage flows through the thread's current allocator
/// (tensor/allocator.h). The deleter pins the owning allocator with a
/// shared_ptr, so a buffer handed out by a capture arena is returned to
/// that arena no matter which thread drops the last reference or whether
/// the AllocatorScope is still open.
std::shared_ptr<float[]> alloc_buffer(int64_t numel) {
  AllocatorPtr a = current_allocator();
  float* p = a->allocate(numel);
  return std::shared_ptr<float[]>(
      p, [a = std::move(a), numel](float* q) { a->deallocate(q, numel); });
}

}  // namespace

int64_t shape_numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    SF_CHECK(d >= 0) << "negative dimension in" << shape_str(shape);
    n *= d;
  }
  return n;
}

std::string shape_str(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ",";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  data_ = alloc_buffer(numel_);
  // Explicit zero fill (allocators hand out uninitialized storage — a
  // reused arena slot holds the previous occupant's bytes).
  std::fill(data_.get(), data_.get() + numel_, 0.0f);
}

Tensor::Tensor(Shape shape, std::vector<float> values) : shape_(std::move(shape)) {
  numel_ = shape_numel(shape_);
  SF_CHECK(static_cast<int64_t>(values.size()) == numel_)
      << "value count" << values.size() << "vs shape" << shape_str(shape_);
  data_ = alloc_buffer(numel_);
  std::copy(values.begin(), values.end(), data_.get());
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  fill_normal(rng, t.data(), static_cast<size_t>(t.numel()), mean, stddev);
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  fill_uniform(rng, t.data(), static_cast<size_t>(t.numel()), lo, hi);
  return t;
}

Tensor Tensor::reshape(Shape new_shape) const {
  SF_CHECK(shape_numel(new_shape) == numel_)
      << "reshape" << shape_str(shape_) << "->" << shape_str(new_shape);
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.numel_ = numel_;
  t.data_ = data_;
  return t;
}

Tensor Tensor::clone() const {
  Tensor t;
  t.shape_ = shape_;
  t.numel_ = numel_;
  if (data_) {
    t.data_ = alloc_buffer(numel_);
    std::memcpy(t.data_.get(), data_.get(), sizeof(float) * numel_);
  }
  return t;
}

void Tensor::fill(float value) {
  std::fill(data_.get(), data_.get() + numel_, value);
}

void Tensor::copy_from(const Tensor& src) {
  SF_CHECK(src.numel_ == numel_) << "copy_from numel mismatch";
  std::memcpy(data_.get(), src.data_.get(), sizeof(float) * numel_);
}

void Tensor::check_same_shape(const Tensor& other, const char* op) const {
  SF_CHECK(shape_ == other.shape_)
      << op << "shape mismatch" << shape_str(shape_) << "vs"
      << shape_str(other.shape_);
}

Tensor Tensor::add(const Tensor& other) const {
  check_same_shape(other, "add");
  Tensor out(shape_);
  const float* a = data();
  const float* b = other.data();
  float* o = out.data();
  for (int64_t i = 0; i < numel_; ++i) o[i] = a[i] + b[i];
  return out;
}

Tensor Tensor::mul(const Tensor& other) const {
  check_same_shape(other, "mul");
  Tensor out(shape_);
  const float* a = data();
  const float* b = other.data();
  float* o = out.data();
  for (int64_t i = 0; i < numel_; ++i) o[i] = a[i] * b[i];
  return out;
}

Tensor Tensor::scale(float s) const {
  Tensor out(shape_);
  const float* a = data();
  float* o = out.data();
  for (int64_t i = 0; i < numel_; ++i) o[i] = a[i] * s;
  return out;
}

void Tensor::add_(const Tensor& other) {
  check_same_shape(other, "add_");
  float* a = data();
  const float* b = other.data();
  for (int64_t i = 0; i < numel_; ++i) a[i] += b[i];
}

void Tensor::scale_(float s) {
  float* a = data();
  for (int64_t i = 0; i < numel_; ++i) a[i] *= s;
}

float Tensor::sum() const {
  double acc = 0.0;
  const float* a = data();
  for (int64_t i = 0; i < numel_; ++i) acc += a[i];
  return static_cast<float>(acc);
}

float Tensor::max_abs() const {
  float m = 0.0f;
  const float* a = data();
  for (int64_t i = 0; i < numel_; ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}

bool Tensor::all_finite() const {
  const float* a = data();
  for (int64_t i = 0; i < numel_; ++i) {
    if (!std::isfinite(a[i])) return false;
  }
  return true;
}

float Tensor::max_abs_diff(const Tensor& other) const {
  check_same_shape(other, "max_abs_diff");
  float m = 0.0f;
  const float* a = data();
  const float* b = other.data();
  for (int64_t i = 0; i < numel_; ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace sf
