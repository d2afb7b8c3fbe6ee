// Forced-scalar SIMD backend: simulates the 8-float / 4-double lanes of
// the vector tiers with plain arrays, so `SF_SIMD=scalar` runs the exact
// operation DAG of the SIMD paths one lane at a time. This is the
// reference side of every scalar-vs-SIMD differential test.
#include <cmath>
#include <cstdint>

#include "kernels/simd_ops_impl.h"

namespace sf::kernels::simd {
namespace {

struct ScalarBackend {
  static constexpr const char* kName = "scalar";

  struct VF {
    float v[8];
  };
  struct VD {
    double v[4];
  };

  static VF load(const float* p) {
    VF r;
    for (int l = 0; l < 8; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(float* p, VF a) {
    for (int l = 0; l < 8; ++l) p[l] = a.v[l];
  }
  static VF set1(float x) {
    VF r;
    for (int l = 0; l < 8; ++l) r.v[l] = x;
    return r;
  }
  static VF zero() { return set1(0.0f); }
  static VF add(VF a, VF b) {
    VF r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  static VF sub(VF a, VF b) {
    VF r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  static VF mul(VF a, VF b) {
    VF r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  static VF div(VF a, VF b) {
    VF r;
    for (int l = 0; l < 8; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
  }
  static VF sqrt(VF a) {
    VF r;
    for (int l = 0; l < 8; ++l) r.v[l] = std::sqrt(a.v[l]);
    return r;
  }

  static VD dzero() {
    VD r;
    for (int l = 0; l < 4; ++l) r.v[l] = 0.0;
    return r;
  }
  static VD dadd(VD a, VD b) {
    VD r;
    for (int l = 0; l < 4; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  static VD dmul(VD a, VD b) {
    VD r;
    for (int l = 0; l < 4; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  static VD widen4(const float* p) {
    VD r;
    for (int l = 0; l < 4; ++l) r.v[l] = static_cast<double>(p[l]);
    return r;
  }
  static void dstore(double* p, VD a) {
    for (int l = 0; l < 4; ++l) p[l] = a.v[l];
  }
};

}  // namespace

// extern: namespace-scope const would otherwise get internal linkage and
// the dispatcher's declaration would never resolve.
extern const Ops kScalarOps;
const Ops kScalarOps = make_ops<ScalarBackend>();

}  // namespace sf::kernels::simd
