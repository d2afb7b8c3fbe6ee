// Dense row-major fp32 tensor.
//
// Deliberately minimal: contiguous storage, value-semantic handle with
// shared ownership of the buffer (like torch.Tensor), shape utilities, and
// elementwise/reduction convenience methods. All performance-critical math
// lives in sf::kernels and operates on raw spans; the Tensor class is the
// glue the model and autograd layers are written against.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/allocator.h"

namespace sf {

using Shape = std::vector<int64_t>;

int64_t shape_numel(const Shape& shape);
std::string shape_str(const Shape& shape);

class Tensor {
 public:
  /// Empty 0-d tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor initialized from values (size must match shape).
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);
  static Tensor scalar(float value) { return Tensor({1}, {value}); }

  const Shape& shape() const { return shape_; }
  int64_t dim(size_t i) const {
    SF_CHECK(i < shape_.size()) << "dim index" << i << "of" << shape_str(shape_);
    return shape_[i];
  }
  size_t rank() const { return shape_.size(); }
  int64_t numel() const { return numel_; }
  bool defined() const { return data_ != nullptr; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  std::span<float> span() { return {data_.get(), static_cast<size_t>(numel_)}; }
  std::span<const float> span() const {
    return {data_.get(), static_cast<size_t>(numel_)};
  }

  float& at(int64_t i) { return data_.get()[i]; }
  float at(int64_t i) const { return data_.get()[i]; }

  /// Shared-buffer view with a new shape (numel must match).
  Tensor reshape(Shape new_shape) const;

  /// Deep copy.
  Tensor clone() const;

  /// Fill with a constant.
  void fill(float value);

  /// Copy values from another tensor of identical numel.
  void copy_from(const Tensor& src);

  // ---- Convenience math (thin wrappers; heavy math is in sf::kernels) ----
  Tensor add(const Tensor& other) const;
  Tensor mul(const Tensor& other) const;
  Tensor scale(float s) const;

  void add_(const Tensor& other);   ///< in-place +=
  void scale_(float s);             ///< in-place *=

  float sum() const;
  float max_abs() const;

  /// True if all elements are finite.
  bool all_finite() const;

  /// Max |a-b| against another tensor of the same shape.
  float max_abs_diff(const Tensor& other) const;

 private:
  void check_same_shape(const Tensor& other, const char* op) const;

  Shape shape_;
  int64_t numel_ = 0;
  std::shared_ptr<float[]> data_;
};

}  // namespace sf
