// NEON SIMD backend (aarch64): the 8-float virtual vector is a pair of
// float32x4_t, the 4-double vector a pair of float64x2_t. NEON is
// architecturally baseline on aarch64, so no extra compile flags and no
// CPUID gate beyond the architecture itself. No FMA (vfmaq) anywhere.
#include <cstdint>

#if defined(SF_SIMD_BUILD_NEON)

#include <arm_neon.h>

#include "kernels/simd_ops_impl.h"

namespace sf::kernels::simd {
namespace {

struct NeonBackend {
  static constexpr const char* kName = "neon";

  struct VF {
    float32x4_t lo, hi;
  };
  struct VD {
    float64x2_t lo, hi;
  };

  static VF load(const float* p) { return {vld1q_f32(p), vld1q_f32(p + 4)}; }
  static void store(float* p, VF a) {
    vst1q_f32(p, a.lo);
    vst1q_f32(p + 4, a.hi);
  }
  static VF set1(float x) { return {vdupq_n_f32(x), vdupq_n_f32(x)}; }
  static VF zero() { return set1(0.0f); }
  static VF add(VF a, VF b) {
    return {vaddq_f32(a.lo, b.lo), vaddq_f32(a.hi, b.hi)};
  }
  static VF sub(VF a, VF b) {
    return {vsubq_f32(a.lo, b.lo), vsubq_f32(a.hi, b.hi)};
  }
  static VF mul(VF a, VF b) {
    return {vmulq_f32(a.lo, b.lo), vmulq_f32(a.hi, b.hi)};
  }
  static VF div(VF a, VF b) {
    return {vdivq_f32(a.lo, b.lo), vdivq_f32(a.hi, b.hi)};
  }
  static VF sqrt(VF a) { return {vsqrtq_f32(a.lo), vsqrtq_f32(a.hi)}; }

  static VD dzero() { return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)}; }
  static VD dadd(VD a, VD b) {
    return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
  }
  static VD dmul(VD a, VD b) {
    return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
  }
  static VD widen4(const float* p) {
    const float32x4_t f = vld1q_f32(p);
    return {vcvt_f64_f32(vget_low_f32(f)), vcvt_high_f64_f32(f)};
  }
  static void dstore(double* p, VD a) {
    vst1q_f64(p, a.lo);
    vst1q_f64(p + 2, a.hi);
  }
};

}  // namespace

// extern: keep external linkage despite const.
extern const Ops kNeonOps;
const Ops kNeonOps = make_ops<NeonBackend>();

}  // namespace sf::kernels::simd

#endif  // SF_SIMD_BUILD_NEON
