// SSE4.1 SIMD backend: the 8-float virtual vector is a pair of __m128,
// the 4-double vector a pair of __m128d. Built with -msse4.1 (the only
// TU that is); dispatched only after __builtin_cpu_supports("sse4.1").
#include <cstdint>

#if defined(SF_SIMD_BUILD_SSE41)

#include <smmintrin.h>

#include "kernels/simd_ops_impl.h"

namespace sf::kernels::simd {
namespace {

struct SseBackend {
  static constexpr const char* kName = "sse";

  struct VF {
    __m128 lo, hi;
  };
  struct VD {
    __m128d lo, hi;
  };

  static VF load(const float* p) {
    return {_mm_loadu_ps(p), _mm_loadu_ps(p + 4)};
  }
  static void store(float* p, VF a) {
    _mm_storeu_ps(p, a.lo);
    _mm_storeu_ps(p + 4, a.hi);
  }
  static VF set1(float x) { return {_mm_set1_ps(x), _mm_set1_ps(x)}; }
  static VF zero() { return {_mm_setzero_ps(), _mm_setzero_ps()}; }
  static VF add(VF a, VF b) {
    return {_mm_add_ps(a.lo, b.lo), _mm_add_ps(a.hi, b.hi)};
  }
  static VF sub(VF a, VF b) {
    return {_mm_sub_ps(a.lo, b.lo), _mm_sub_ps(a.hi, b.hi)};
  }
  static VF mul(VF a, VF b) {
    return {_mm_mul_ps(a.lo, b.lo), _mm_mul_ps(a.hi, b.hi)};
  }
  static VF div(VF a, VF b) {
    return {_mm_div_ps(a.lo, b.lo), _mm_div_ps(a.hi, b.hi)};
  }
  static VF sqrt(VF a) { return {_mm_sqrt_ps(a.lo), _mm_sqrt_ps(a.hi)}; }

  static VD dzero() { return {_mm_setzero_pd(), _mm_setzero_pd()}; }
  static VD dadd(VD a, VD b) {
    return {_mm_add_pd(a.lo, b.lo), _mm_add_pd(a.hi, b.hi)};
  }
  static VD dmul(VD a, VD b) {
    return {_mm_mul_pd(a.lo, b.lo), _mm_mul_pd(a.hi, b.hi)};
  }
  static VD widen4(const float* p) {
    const __m128 f = _mm_loadu_ps(p);
    return {_mm_cvtps_pd(f), _mm_cvtps_pd(_mm_movehl_ps(f, f))};
  }
  static void dstore(double* p, VD a) {
    _mm_storeu_pd(p, a.lo);
    _mm_storeu_pd(p + 2, a.hi);
  }
};

}  // namespace

// extern: keep external linkage despite const.
extern const Ops kSseOps;
const Ops kSseOps = make_ops<SseBackend>();

}  // namespace sf::kernels::simd

#endif  // SF_SIMD_BUILD_SSE41
