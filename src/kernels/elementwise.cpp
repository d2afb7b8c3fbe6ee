#include "kernels/elementwise.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "kernels/simd_ops.h"

namespace sf::kernels {
namespace {

// Flat-chunk grain for parallel elementwise sweeps: ~16K elements per
// chunk keeps tiny tensors serial and big ones bandwidth-bound per thread.
constexpr int64_t kEwGrain = 1 << 14;

int64_t row_grain_for(int64_t cols) {
  return std::max<int64_t>(1, kEwGrain / std::max<int64_t>(1, cols));
}

// tanh-approximation GELU (the variant used by most transformer stacks).
inline float gelu_scalar(float x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  float inner = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

inline float gelu_grad_scalar(float x) {
  constexpr float kC = 0.7978845608028654f;
  float x3 = x * x * x;
  float inner = kC * (x + 0.044715f * x3);
  float t = std::tanh(inner);
  float sech2 = 1.0f - t * t;
  float dinner = kC * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

inline float sigmoid_scalar(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

void gelu_forward(const float* x, float* y, int64_t n) {
  parallel_for(0, n, kEwGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) y[i] = gelu_scalar(x[i]);
  });
}

void gelu_backward(const float* x, const float* dy, float* dx, int64_t n) {
  parallel_for(0, n, kEwGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) dx[i] = dy[i] * gelu_grad_scalar(x[i]);
  });
}

void bias_add(const float* x, const float* bias, float* y, int64_t rows,
              int64_t cols) {
  const simd::Ops& o = simd::ops();
  parallel_for(0, rows, row_grain_for(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      o.add_f32(x + r * cols, bias, y + r * cols, cols);
    }
  });
}

void fused_glu_forward(const float* x, const float* gate, float* y,
                       int64_t n) {
  parallel_for(0, n, kEwGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) y[i] = sigmoid_scalar(gate[i]) * x[i];
  });
}

void fused_glu_backward(const float* x, const float* gate, const float* dy,
                        float* dx, float* dgate, int64_t n) {
  parallel_for(0, n, kEwGrain, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      float s = sigmoid_scalar(gate[i]);
      dx[i] = dy[i] * s;
      dgate[i] = dy[i] * x[i] * s * (1.0f - s);
    }
  });
}

}  // namespace sf::kernels
