// Differentiable op library over sf::autograd::Var.
//
// Each op computes its value with sf::kernels and registers a backward
// closure on the tape. Fused kernels (flash MHA, fused LayerNorm) appear
// as single tape nodes — the torch.autograd.Function-wrapping-a-Triton-
// kernel pattern from the paper. AlphaFold-specific primitives (outer
// product mean, triangle multiplication, pairwise distances) have
// hand-derived backwards.
#pragma once

#include <array>
#include <optional>

#include "autograd/var.h"
#include "kernels/attention.h"

namespace sf::autograd {

// ---- basic arithmetic -----------------------------------------------------
Var add(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var scale(const Var& a, float s);

/// x[..., K] x w[K,N] + bias[N]; leading dims flattened. bias optional.
Var linear(const Var& x, const Var& w, const Var* bias = nullptr);

/// Row-shared inverted dropout (AF2's DropoutRowwise): one Bernoulli draw
/// per slice of the leading axis, broadcast across the slice; dropped
/// slices are zeroed, kept ones scaled by 1/(1-p), and the same mask gates
/// the backward. Identity when p == 0. Deterministic given the caller's RNG
/// state.
Var dropout_rows(const Var& x, float p, Rng& rng);

// ---- activations ----------------------------------------------------------
Var gelu(const Var& x);
/// Gated unit: sigmoid(gate) * x (fused kernel, single tape node).
Var glu(const Var& x, const Var& gate);

// ---- normalization / attention --------------------------------------------
/// LayerNorm over the last dim (cols = shape.back()). `fused` selects the
/// ScaleFold kernel; both record identical math on the tape.
Var layernorm(const Var& x, const Var& gamma, const Var& beta,
              float eps = 1e-5f, bool fused = true);

/// Multi-head attention with optional pair bias (per §3.3.1 / Fig. 6).
/// q,k,v are [B,H,S,D]; pair_bias (optional) is [H,Sq,Sk]; mask (optional,
/// non-differentiable) is additive [B,Sk]. `use_flash` selects the fused
/// kernel; the naive path materializes probabilities.
Var mha(const Var& q, const Var& k, const Var& v, const Var* pair_bias,
        const Tensor* mask, bool use_flash = true);

/// [B*S, H*D] -> [B,H,S,D] permute-copy (and inverse).
Var split_heads(const Var& x, int64_t batch, int64_t seq, int64_t heads,
                int64_t dim);
Var merge_heads(const Var& x);  ///< [B,H,S,D] -> [B*S, H*D]

/// General 3-D permutation: out[i,j,k] = x[perm applied]. perm gives, for
/// each output axis, the input axis it comes from.
Var permute3(const Var& x, const std::array<int, 3>& perm);

Var reshape(const Var& x, Shape shape);

/// Value passthrough that blocks gradient flow (recycling detach).
Var stop_gradient(const Var& x);

// ---- reductions / losses --------------------------------------------------
Var sum(const Var& x);

/// Mean of w[i] * (x[i] - target[i])^2 over all elements; target and
/// weight are constants. weight may be null (all ones).
Var weighted_mse(const Var& x, const Tensor& target, const Tensor* weight);

/// Softmax cross-entropy over the last dim of logits[N, C] with integer
/// class targets (one per row) and optional non-negative per-row weights.
/// Returns the weighted mean negative log-likelihood; rows with zero
/// weight are skipped entirely. Forward and backward are fused
/// (d logits = w * (softmax - onehot) / sum w).
Var softmax_cross_entropy(const Var& logits,
                          const std::vector<int64_t>& targets,
                          const Tensor* row_weights = nullptr);

/// x[S, ...] + y[...] broadcast along the leading axis (backward sums over
/// that axis into y).
Var add_bcast0(const Var& x, const Var& y);

/// Outer sum: a[R,C], b[R,C] -> out[R,R,C] = a[i,:] + b[j,:] (pair-rep
/// initialization).
Var outer_sum(const Var& a, const Var& b);

/// First k slices of the leading axis (contiguous prefix); backward
/// zero-pads the remainder.
Var take_leading(const Var& x, int64_t k);

/// Straight-through bf16 rounding: value is quantized through bfloat16
/// storage, gradient passes unchanged (fp32 master-weight emulation).
Var bf16_round_st(const Var& x);

// ---- AlphaFold-specific primitives ----------------------------------------
/// Outer product mean (Evoformer): a[S,R,U], b[S,R,V] ->
/// out[R,R,U*V], out[i,j,u*V+v] = mean_s a[s,i,u] * b[s,j,v].
Var outer_product_mean(const Var& a, const Var& b);

/// Triangle multiplication: a,b are [R,R,C].
/// outgoing: out[i,j,c] = sum_k a[i,k,c] * b[j,k,c]
/// incoming: out[i,j,c] = sum_k a[k,i,c] * b[k,j,c]
Var triangle_multiply(const Var& a, const Var& b, bool outgoing);

/// Pairwise Euclidean distances of pos[R,3] -> [R,R] (diag 0).
/// Superposition-free structural loss target (FAPE-lite).
Var pairwise_dist(const Var& pos, float eps = 1e-6f);

}  // namespace sf::autograd
