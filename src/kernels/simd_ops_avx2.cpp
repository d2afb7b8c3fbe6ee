// AVX2 SIMD backend: native 8-float __m256 / 4-double __m256d vectors.
// Built with -mavx2 (the only TU that is); dispatched only after
// __builtin_cpu_supports("avx2"). No FMA: mul and add stay separate so
// rounding matches the scalar and SSE tiers bit for bit.
#include <cstdint>

#if defined(SF_SIMD_BUILD_AVX2)

#include <immintrin.h>

#include "kernels/simd_ops_impl.h"

namespace sf::kernels::simd {
namespace {

struct Avx2Backend {
  static constexpr const char* kName = "avx2";

  using VF = __m256;
  using VD = __m256d;

  static VF load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, VF a) { _mm256_storeu_ps(p, a); }
  static VF set1(float x) { return _mm256_set1_ps(x); }
  static VF zero() { return _mm256_setzero_ps(); }
  static VF add(VF a, VF b) { return _mm256_add_ps(a, b); }
  static VF sub(VF a, VF b) { return _mm256_sub_ps(a, b); }
  static VF mul(VF a, VF b) { return _mm256_mul_ps(a, b); }
  static VF div(VF a, VF b) { return _mm256_div_ps(a, b); }
  static VF sqrt(VF a) { return _mm256_sqrt_ps(a); }

  static VD dzero() { return _mm256_setzero_pd(); }
  static VD dadd(VD a, VD b) { return _mm256_add_pd(a, b); }
  static VD dmul(VD a, VD b) { return _mm256_mul_pd(a, b); }
  static VD widen4(const float* p) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  }
  static void dstore(double* p, VD a) { _mm256_storeu_pd(p, a); }
};

}  // namespace

// extern: keep external linkage despite const.
extern const Ops kAvx2Ops;
const Ops kAvx2Ops = make_ops<Avx2Backend>();

}  // namespace sf::kernels::simd

#endif  // SF_SIMD_BUILD_AVX2
