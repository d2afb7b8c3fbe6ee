// Elementwise kernels and small fusions.
//
// The AlphaFold step launches ~150k mostly memory-bound kernels (Table 1);
// chains of elementwise ops (bias add, activation, gating, residual) are
// the bulk of them. These are the ones the model's tape ops call.
#pragma once

#include <cstdint>

namespace sf::kernels {

// Activations (forward / backward given upstream grad and forward input).
void gelu_forward(const float* x, float* y, int64_t n);
void gelu_backward(const float* x, const float* dy, float* dx, int64_t n);

/// y[r, c] = x[r, c] + bias[c]; y may alias x.
void bias_add(const float* x, const float* bias, float* y, int64_t rows,
              int64_t cols);

/// Gated output: y = sigmoid(g) * x, fused. dgate/dx backward included.
void fused_glu_forward(const float* x, const float* gate, float* y, int64_t n);
void fused_glu_backward(const float* x, const float* gate, const float* dy,
                        float* dx, float* dgate, int64_t n);

}  // namespace sf::kernels
