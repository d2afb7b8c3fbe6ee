// Per-tier vectorized micro-kernel tables (DESIGN.md §12).
//
// Every hot inner loop in src/kernels funnels through one of these ops.
// Each SIMD tier (scalar / SSE4.1 / AVX2 / NEON) provides one `Ops` table,
// built by instantiating the same templated kernel bodies
// (simd_ops_impl.h) over a tier-specific vector backend, so all tiers
// execute the identical IEEE operation DAG:
//
//   * elementwise ops keep the per-element expression order of the
//     original scalar kernels;
//   * reductions use a fixed virtual-lane pattern — 8 float lanes or
//     4 double lanes, lane l accumulating elements i ≡ l (mod width),
//     tail elements continuing the pattern, lanes combined in ascending
//     order — in every tier (the scalar tier simulates the lanes);
//   * no FMA anywhere (and the build passes -ffp-contract=off).
//
// Output is therefore bitwise identical across tiers; `SF_SIMD=scalar`
// is the differential-testing escape hatch, not a different numeric mode.
#pragma once

#include <cstdint>

#include "common/simd.h"

namespace sf::kernels::simd {

/// Scalar constants of the fused Adam+SWA element update, precomputed by
/// the caller (fused_adam_swa_step) so every tier broadcasts identical
/// values.
struct AdamConsts {
  float grad_scale = 1.0f;
  float weight_decay = 0.0f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float one_minus_beta1 = 0.1f;
  float one_minus_beta2 = 0.001f;
  float inv_bc1 = 1.0f;
  float inv_bc2 = 1.0f;
  float lr = 1e-3f;
  float eps = 1e-8f;
  float swa_decay = 0.0f;
};

struct Ops {
  const char* name;  ///< tier_name() of the backing tier

  /// y[i] += a * x[i]
  void (*axpy_f32)(float a, const float* x, float* y, int64_t n);
  /// y[i] *= a
  void (*scale_f32)(float* y, float a, int64_t n);
  /// y[i] = a[i] + b[i]
  void (*add_f32)(const float* a, const float* b, float* y, int64_t n);

  /// 8-lane fixed-order dot product.
  float (*dot_f32)(const float* x, const float* y, int64_t n);
  /// 4-double-lane fixed-order sum and sum-of-squares of a float row.
  void (*sum_sumsq_f32)(const float* x, int64_t n, double* s, double* sq);
  /// 4-double-lane fixed-order sum of squares (grad-norm partials).
  double (*sumsq_f32)(const float* x, int64_t n);

  /// y[c] = (x[c] - mean) * rstd * gamma[c] + beta[c]
  void (*ln_fwd_row)(const float* x, const float* gamma, const float* beta,
                     float mean, float rstd, float* y, int64_t n);
  /// Fused LayerNorm backward row pass 1: accumulates the per-row double
  /// reductions sg/sgh (4-lane pattern) and the per-column float partials
  /// pg[c] += dy[c]*xhat[c], pb[c] += dy[c].
  void (*ln_bwd_row_reduce)(const float* x, const float* dy,
                            const float* gamma, float mean, float rstd,
                            float* pg, float* pb, int64_t n, double* sg,
                            double* sgh);
  /// Fused LayerNorm backward row pass 2:
  /// dx[c] = rstd * (dy[c]*gamma[c] - t1 - xhat[c]*inv_n*fsgh), where
  /// t1 = inv_n*fsg is precomputed by the caller.
  void (*ln_bwd_row_dx)(const float* x, const float* dy, const float* gamma,
                        float mean, float rstd, float t1, float fsgh,
                        float inv_n, float* dx, int64_t n);

  /// Fused Adam+SWA over one contiguous chunk; `s` may be null (no SWA).
  void (*adam_swa_chunk)(float* p, float* g, float* m, float* v, float* s,
                         int64_t n, const AdamConsts& k);
};

/// Table for tier `t`, or nullptr when that tier is not available in this
/// process (not compiled in, or the CPU lacks the ISA).
const Ops* tier_ops(sf::simd::Tier t);

/// Table for sf::simd::active_tier(); never null (scalar fallback).
const Ops& ops();

}  // namespace sf::kernels::simd
