// Shared kernel bodies for every SIMD tier (DESIGN.md §12).
//
// Each per-tier translation unit (simd_ops_scalar.cpp, simd_ops_sse.cpp,
// simd_ops_avx2.cpp, simd_ops_neon.cpp) defines a backend struct `B`
// exposing an 8-float vector `B::VF` and a 4-double vector `B::VD` with
// lane-wise IEEE add/sub/mul/div/sqrt, then instantiates `Ker<B>` below.
// Because every tier runs these exact bodies — the scalar backend just
// simulates the lanes with arrays — the operation DAG applied to each
// element, and the lane assignment of every reduction, is identical by
// construction. Tails are scalar code compiled under -ffp-contract=off
// and continue the lane pattern, so they too are tier-invariant.
//
// Reduction contract:
//   * f32 dot products use 8 float lanes; lane l accumulates elements
//     i ≡ l (mod 8); lanes combine serially in ascending order.
//   * f64 row statistics (sum/sumsq, LayerNorm sg/sgh) use 4 double
//     lanes; lane l accumulates elements i ≡ l (mod 4).
// Neither pattern depends on the thread count or the tier.
#pragma once

#include <cmath>
#include <cstdint>

#include "kernels/simd_ops.h"

namespace sf::kernels::simd {

template <class B>
struct Ker {
  using VF = typename B::VF;
  using VD = typename B::VD;

  static void axpy_f32(float a, const float* x, float* y, int64_t n) {
    const VF va = B::set1(a);
    const int64_t n8 = n & ~int64_t{7};
    int64_t i = 0;
    for (; i < n8; i += 8) {
      B::store(y + i, B::add(B::load(y + i), B::mul(va, B::load(x + i))));
    }
    for (; i < n; ++i) y[i] += a * x[i];
  }

  static void scale_f32(float* y, float a, int64_t n) {
    const VF va = B::set1(a);
    const int64_t n8 = n & ~int64_t{7};
    int64_t i = 0;
    for (; i < n8; i += 8) B::store(y + i, B::mul(B::load(y + i), va));
    for (; i < n; ++i) y[i] *= a;
  }

  static void add_f32(const float* a, const float* b, float* y, int64_t n) {
    const int64_t n8 = n & ~int64_t{7};
    int64_t i = 0;
    for (; i < n8; i += 8) {
      B::store(y + i, B::add(B::load(a + i), B::load(b + i)));
    }
    for (; i < n; ++i) y[i] = a[i] + b[i];
  }

  static float dot_f32(const float* x, const float* y, int64_t n) {
    VF acc = B::zero();
    const int64_t n8 = n & ~int64_t{7};
    int64_t i = 0;
    for (; i < n8; i += 8) {
      acc = B::add(acc, B::mul(B::load(x + i), B::load(y + i)));
    }
    float lanes[8];
    B::store(lanes, acc);
    // Tail elements continue the lane pattern: element n8+j joins lane j.
    for (int64_t j = 0; j < n - n8; ++j) {
      lanes[j] += x[n8 + j] * y[n8 + j];
    }
    float s = lanes[0];
    for (int l = 1; l < 8; ++l) s += lanes[l];
    return s;
  }

  static void sum_sumsq_f32(const float* x, int64_t n, double* s, double* sq) {
    VD vs = B::dzero(), vq = B::dzero();
    const int64_t n4 = n & ~int64_t{3};
    int64_t i = 0;
    for (; i < n4; i += 4) {
      const VD d = B::widen4(x + i);
      vs = B::dadd(vs, d);
      vq = B::dadd(vq, B::dmul(d, d));
    }
    double sl[4], ql[4];
    B::dstore(sl, vs);
    B::dstore(ql, vq);
    for (int64_t j = 0; j < n - n4; ++j) {
      const double d = static_cast<double>(x[n4 + j]);
      sl[j] += d;
      ql[j] += d * d;
    }
    double ts = sl[0], tq = ql[0];
    for (int l = 1; l < 4; ++l) {
      ts += sl[l];
      tq += ql[l];
    }
    *s = ts;
    *sq = tq;
  }

  static double sumsq_f32(const float* x, int64_t n) {
    VD vq = B::dzero();
    const int64_t n4 = n & ~int64_t{3};
    int64_t i = 0;
    for (; i < n4; i += 4) {
      const VD d = B::widen4(x + i);
      vq = B::dadd(vq, B::dmul(d, d));
    }
    double ql[4];
    B::dstore(ql, vq);
    for (int64_t j = 0; j < n - n4; ++j) {
      const double d = static_cast<double>(x[n4 + j]);
      ql[j] += d * d;
    }
    double tq = ql[0];
    for (int l = 1; l < 4; ++l) tq += ql[l];
    return tq;
  }

  static void ln_fwd_row(const float* x, const float* gamma, const float* beta,
                         float mean, float rstd, float* y, int64_t n) {
    const VF vm = B::set1(mean), vr = B::set1(rstd);
    const int64_t n8 = n & ~int64_t{7};
    int64_t i = 0;
    for (; i < n8; i += 8) {
      const VF h = B::mul(B::sub(B::load(x + i), vm), vr);
      B::store(y + i, B::add(B::mul(h, B::load(gamma + i)), B::load(beta + i)));
    }
    for (; i < n; ++i) y[i] = (x[i] - mean) * rstd * gamma[i] + beta[i];
  }

  static void ln_bwd_row_reduce(const float* x, const float* dy,
                                const float* gamma, float mean, float rstd,
                                float* pg, float* pb, int64_t n, double* sg,
                                double* sgh) {
    const VF vm = B::set1(mean), vr = B::set1(rstd);
    VD vsg0 = B::dzero(), vsg1 = B::dzero();
    VD vsh0 = B::dzero(), vsh1 = B::dzero();
    const int64_t n8 = n & ~int64_t{7};
    int64_t i = 0;
    float hh[8], gg[8];
    for (; i < n8; i += 8) {
      const VF dyi = B::load(dy + i);
      const VF h = B::mul(B::sub(B::load(x + i), vm), vr);
      const VF g = B::mul(dyi, B::load(gamma + i));
      B::store(pg + i, B::add(B::load(pg + i), B::mul(dyi, h)));
      B::store(pb + i, B::add(B::load(pb + i), dyi));
      B::store(hh, h);
      B::store(gg, g);
      // Two 4-double steps keep lane l on elements c ≡ l (mod 4).
      VD dg = B::widen4(gg), dh = B::widen4(hh);
      vsg0 = B::dadd(vsg0, dg);
      vsh0 = B::dadd(vsh0, B::dmul(dg, dh));
      dg = B::widen4(gg + 4);
      dh = B::widen4(hh + 4);
      vsg1 = B::dadd(vsg1, dg);
      vsh1 = B::dadd(vsh1, B::dmul(dg, dh));
    }
    double sgl[4], shl[4], sgl1[4], shl1[4];
    B::dstore(sgl, vsg0);
    B::dstore(shl, vsh0);
    B::dstore(sgl1, vsg1);
    B::dstore(shl1, vsh1);
    // Fold the even/odd quads: lane l saw elements l, l+8, ... and
    // l+4, l+12, ...; merging them per lane keeps a fixed, size-only-
    // dependent order before the tail continues the mod-4 pattern.
    for (int l = 0; l < 4; ++l) {
      sgl[l] += sgl1[l];
      shl[l] += shl1[l];
    }
    for (int64_t j = 0; j < n - n8; ++j) {
      const int64_t c = n8 + j;
      const float h = (x[c] - mean) * rstd;
      const float g = dy[c] * gamma[c];
      pg[c] += dy[c] * h;
      pb[c] += dy[c];
      const double dg = static_cast<double>(g);
      sgl[j & 3] += dg;
      shl[j & 3] += dg * static_cast<double>(h);
    }
    double tsg = sgl[0], tsh = shl[0];
    for (int l = 1; l < 4; ++l) {
      tsg += sgl[l];
      tsh += shl[l];
    }
    *sg += tsg;
    *sgh += tsh;
  }

  static void ln_bwd_row_dx(const float* x, const float* dy,
                            const float* gamma, float mean, float rstd,
                            float t1, float fsgh, float inv_n, float* dx,
                            int64_t n) {
    const VF vm = B::set1(mean), vr = B::set1(rstd);
    const VF vt1 = B::set1(t1), vsgh = B::set1(fsgh), vin = B::set1(inv_n);
    const int64_t n8 = n & ~int64_t{7};
    int64_t i = 0;
    for (; i < n8; i += 8) {
      const VF h = B::mul(B::sub(B::load(x + i), vm), vr);
      const VF g = B::mul(B::load(dy + i), B::load(gamma + i));
      const VF t2 = B::mul(B::mul(h, vin), vsgh);
      B::store(dx + i, B::mul(vr, B::sub(B::sub(g, vt1), t2)));
    }
    for (; i < n; ++i) {
      const float h = (x[i] - mean) * rstd;
      const float g = dy[i] * gamma[i];
      dx[i] = rstd * (g - t1 - h * inv_n * fsgh);
    }
  }

  static void adam_swa_chunk(float* p, float* g, float* m, float* v, float* s,
                             int64_t n, const AdamConsts& k) {
    const float omswa = 1.0f - k.swa_decay;
    const VF vgs = B::set1(k.grad_scale), vwd = B::set1(k.weight_decay);
    const VF vb1 = B::set1(k.beta1), vo1 = B::set1(k.one_minus_beta1);
    const VF vb2 = B::set1(k.beta2), vo2 = B::set1(k.one_minus_beta2);
    const VF vc1 = B::set1(k.inv_bc1), vc2 = B::set1(k.inv_bc2);
    const VF vlr = B::set1(k.lr), veps = B::set1(k.eps);
    const VF vsw = B::set1(k.swa_decay), vow = B::set1(omswa);
    const bool wd = k.weight_decay != 0.0f;
    const int64_t n8 = n & ~int64_t{7};
    int64_t i = 0;
    for (; i < n8; i += 8) {
      const VF pv = B::load(p + i);
      VF gi = B::mul(B::load(g + i), vgs);
      if (wd) gi = B::add(gi, B::mul(vwd, pv));
      const VF mi = B::add(B::mul(vb1, B::load(m + i)), B::mul(vo1, gi));
      const VF vi =
          B::add(B::mul(vb2, B::load(v + i)), B::mul(B::mul(vo2, gi), gi));
      B::store(m + i, mi);
      B::store(v + i, vi);
      const VF upd = B::div(B::mul(vlr, B::mul(mi, vc1)),
                            B::add(B::sqrt(B::mul(vi, vc2)), veps));
      const VF pi = B::sub(pv, upd);
      B::store(p + i, pi);
      if (s) {
        B::store(s + i, B::add(B::mul(vsw, B::load(s + i)), B::mul(vow, pi)));
      }
    }
    for (; i < n; ++i) {
      float gi = g[i] * k.grad_scale;
      if (wd) gi += k.weight_decay * p[i];
      const float mi = k.beta1 * m[i] + k.one_minus_beta1 * gi;
      const float vi = k.beta2 * v[i] + k.one_minus_beta2 * gi * gi;
      m[i] = mi;
      v[i] = vi;
      const float upd =
          k.lr * (mi * k.inv_bc1) / (std::sqrt(vi * k.inv_bc2) + k.eps);
      const float pi = p[i] - upd;
      p[i] = pi;
      if (s) s[i] = k.swa_decay * s[i] + omswa * pi;
    }
  }
};

template <class B>
inline Ops make_ops() {
  return Ops{
      B::kName,
      &Ker<B>::axpy_f32,
      &Ker<B>::scale_f32,
      &Ker<B>::add_f32,
      &Ker<B>::dot_f32,
      &Ker<B>::sum_sumsq_f32,
      &Ker<B>::sumsq_f32,
      &Ker<B>::ln_fwd_row,
      &Ker<B>::ln_bwd_row_reduce,
      &Ker<B>::ln_bwd_row_dx,
      &Ker<B>::adam_swa_chunk,
  };
}

}  // namespace sf::kernels::simd
