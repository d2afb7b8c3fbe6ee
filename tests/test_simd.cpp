// Tests for the SIMD dispatch layer (sf::simd) and the scalar-vs-SIMD
// bitwise determinism of every vectorized kernel.
//
// The contract under test (DESIGN.md §12): every tier executes the same
// IEEE operation DAG — fixed virtual-lane reduction order, no FMA — so
// forcing SF_SIMD=scalar and re-running any kernel must reproduce the
// vectorized output to the bit, at any thread count. The differential
// sweep below runs each kernel once under the forced-scalar tier at one
// thread (the reference), then under every available tier at 1 and 4
// threads, and memcmps the outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "kernels/attention.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/layernorm.h"
#include "kernels/optimizer_kernels.h"
#include "kernels/simd_ops.h"
#include "kernels/softmax.h"

namespace sf {
namespace {

/// RAII guards so a failing assertion can't leak a forced tier or thread
/// count into the rest of the binary.
struct TierGuard {
  ~TierGuard() { simd::clear_tier(); }
};
struct ThreadGuard {
  ~ThreadGuard() { set_num_threads(0); }
};

std::vector<simd::Tier> available_tiers() {
  std::vector<simd::Tier> out;
  for (int i = 0; i < simd::kNumTiers; ++i) {
    const auto t = static_cast<simd::Tier>(i);
    if (simd::tier_available(t)) out.push_back(t);
  }
  return out;
}

std::vector<float> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  fill_normal(rng, v.data(), n, 0.0f, 1.0f);
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Run `run_into` (returning a list of output buffers) under the forced
/// scalar tier at 1 thread, then under every available tier at 1 and 4
/// threads; all runs must produce bitwise-identical buffers.
template <typename Fn>
void expect_bitwise_across_tiers(const Fn& run_into) {
  TierGuard tier_guard;
  ThreadGuard thread_guard;
  ASSERT_TRUE(simd::set_tier(simd::Tier::kScalar));
  set_num_threads(1);
  const auto ref = run_into();
  for (simd::Tier t : available_tiers()) {
    for (int threads : {1, 4}) {
      ASSERT_TRUE(simd::set_tier(t));
      set_num_threads(threads);
      auto got = run_into();
      ASSERT_EQ(ref.size(), got.size());
      for (size_t b = 0; b < ref.size(); ++b) {
        EXPECT_TRUE(bitwise_equal(ref[b], got[b]))
            << "buffer " << b << " differs under tier "
            << simd::tier_name(t) << " at " << threads << " threads";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch layer semantics.
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarTierIsAlwaysAvailable) {
  EXPECT_TRUE(simd::compiled_in(simd::Tier::kScalar));
  EXPECT_TRUE(simd::cpu_supports(simd::Tier::kScalar));
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  const kernels::simd::Ops* ops = kernels::simd::tier_ops(simd::Tier::kScalar);
  ASSERT_NE(ops, nullptr);
  EXPECT_STREQ(ops->name, "scalar");
}

TEST(SimdDispatch, TierNamesAreStable) {
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kSSE), "sse");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAVX2), "avx2");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kNEON), "neon");
}

TEST(SimdDispatch, AvailableImpliesCompiledAndSupported) {
  for (int i = 0; i < simd::kNumTiers; ++i) {
    const auto t = static_cast<simd::Tier>(i);
    EXPECT_EQ(simd::tier_available(t),
              simd::compiled_in(t) && simd::cpu_supports(t))
        << simd::tier_name(t);
  }
}

TEST(SimdDispatch, SetTierOverridesActiveTierAndOpsTable) {
  TierGuard guard;
  for (simd::Tier t : available_tiers()) {
    ASSERT_TRUE(simd::set_tier(t)) << simd::tier_name(t);
    EXPECT_EQ(simd::active_tier(), t);
    EXPECT_STREQ(kernels::simd::ops().name, simd::tier_name(t));
    const kernels::simd::Ops* table = kernels::simd::tier_ops(t);
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table, &kernels::simd::ops());
  }
  simd::clear_tier();
  // After clearing, resolution falls back to SF_SIMD (the CI lanes run
  // this suite with SF_SIMD=scalar), else best_available — either way
  // the result must be a runnable tier.
  EXPECT_TRUE(simd::tier_available(simd::active_tier()));
  if (std::getenv("SF_SIMD") == nullptr) {
    EXPECT_EQ(simd::active_tier(), simd::best_available());
  }
}

TEST(SimdDispatch, UnavailableTierIsRejected) {
  // x86 never has NEON and aarch64 never has SSE/AVX2, so at least one
  // tier is always unavailable on any host.
  TierGuard guard;
  bool saw_unavailable = false;
  for (int i = 0; i < simd::kNumTiers; ++i) {
    const auto t = static_cast<simd::Tier>(i);
    if (simd::tier_available(t)) continue;
    saw_unavailable = true;
    const simd::Tier before = simd::active_tier();
    EXPECT_FALSE(simd::set_tier(t)) << simd::tier_name(t);
    EXPECT_EQ(simd::active_tier(), before);
    EXPECT_EQ(kernels::simd::tier_ops(t), nullptr);
  }
  EXPECT_TRUE(saw_unavailable);
}

TEST(SimdDispatch, BestAvailableIsAvailable) {
  EXPECT_TRUE(simd::tier_available(simd::best_available()));
}

TEST(SimdDispatch, CacheInfoHasSaneGeometry) {
  const simd::CacheInfo& ci = simd::cache_info();
  EXPECT_GT(ci.l1d_bytes, 0);
  EXPECT_GT(ci.l2_bytes, 0);
  EXPECT_GE(ci.l2_bytes, ci.l1d_bytes);
}

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD bitwise differentials, tier x thread-count sweep.
// ---------------------------------------------------------------------------

TEST(SimdDifferential, GemmAllTransposeCombos) {
  const int64_t m = 35, k = 67, n = 29;  // non-multiples of every tile dim
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      auto a = random_vec(m * k, 11);
      auto b = random_vec(k * n, 12);
      expect_bitwise_across_tiers([&]() {
        std::vector<float> c(m * n, 0.5f);
        kernels::gemm(a.data(), b.data(), c.data(), m, k, n, ta, tb, 1.3f,
                      1.0f);
        return std::vector<std::vector<float>>{c};
      });
    }
  }
}

TEST(SimdDifferential, GemmBetaScalePath) {
  const int64_t m = 18, k = 31, n = 22;
  auto a = random_vec(m * k, 13);
  auto b = random_vec(k * n, 14);
  for (float beta : {0.0f, 0.7f}) {
    expect_bitwise_across_tiers([&]() {
      std::vector<float> c(m * n, 2.0f);
      kernels::gemm(a.data(), b.data(), c.data(), m, k, n, false, false, 1.0f,
                    beta);
      return std::vector<std::vector<float>>{c};
    });
  }
}

TEST(SimdDifferential, GemmBatchedAndLinearGroup) {
  const int64_t items = 3, m = 21, k = 33, n = 17;
  std::vector<std::vector<float>> as, bs;
  for (int64_t i = 0; i < items; ++i) {
    as.push_back(random_vec(m * k, 100 + i));
    bs.push_back(random_vec(k * n, 200 + i));
  }
  const std::vector<int64_t> dims = {8, 12, 20};
  auto x = random_vec(m * k, 31);
  std::vector<std::vector<float>> ws;
  for (size_t g = 0; g < dims.size(); ++g) {
    ws.push_back(random_vec(k * dims[g], 300 + g));
  }
  expect_bitwise_across_tiers([&]() {
    std::vector<std::vector<float>> cs(items, std::vector<float>(m * n));
    std::vector<const float*> ap, bp;
    std::vector<float*> cp;
    for (int64_t i = 0; i < items; ++i) {
      ap.push_back(as[i].data());
      bp.push_back(bs[i].data());
      cp.push_back(cs[i].data());
    }
    kernels::gemm_batched(ap, bp, cp, m, k, n);

    std::vector<std::vector<float>> outs;
    std::vector<const float*> wp;
    std::vector<float*> op;
    for (size_t g = 0; g < dims.size(); ++g) {
      outs.emplace_back(m * dims[g]);
      wp.push_back(ws[g].data());
    }
    for (auto& o : outs) op.push_back(o.data());
    kernels::linear_group_batched(x.data(), m, k, wp, dims, op);

    for (auto& o : outs) cs.push_back(std::move(o));
    return cs;
  });
}

void mha_tier_case(bool flash) {
  kernels::AttentionDims d;
  d.batch = 2;
  d.heads = 3;
  d.q_len = 21;
  d.k_len = 27;
  d.head_dim = 8;
  auto q = random_vec(d.qkv_numel(true), 1);
  auto k = random_vec(d.qkv_numel(false), 2);
  auto v = random_vec(d.qkv_numel(false), 3);
  auto bias = random_vec(d.bias_numel(), 4);
  auto dout = random_vec(d.qkv_numel(true), 5);
  std::vector<float> mask(d.batch * d.k_len, 0.0f);

  expect_bitwise_across_tiers([&]() {
    std::vector<float> out(d.qkv_numel(true));
    std::vector<float> dq(q.size()), dk(k.size()), dv(v.size());
    std::vector<float> dbias(bias.size());
    kernels::AttentionContext ctx;
    if (flash) {
      kernels::mha_forward_flash(d, q.data(), k.data(), v.data(), bias.data(),
                                 mask.data(), out.data(), &ctx, 16);
      kernels::mha_backward_flash(d, q.data(), k.data(), v.data(), bias.data(),
                                  mask.data(), out.data(), dout.data(), ctx,
                                  dq.data(), dk.data(), dv.data(),
                                  dbias.data(), 16);
    } else {
      kernels::mha_forward_naive(d, q.data(), k.data(), v.data(), bias.data(),
                                 mask.data(), out.data(), &ctx);
      kernels::mha_backward_naive(d, q.data(), k.data(), v.data(), dout.data(),
                                  ctx, dq.data(), dk.data(), dv.data(),
                                  dbias.data());
    }
    return std::vector<std::vector<float>>{out, dq, dk, dv, dbias};
  });
}

TEST(SimdDifferential, MhaNaiveForwardBackward) { mha_tier_case(false); }
TEST(SimdDifferential, MhaFlashForwardBackward) { mha_tier_case(true); }

TEST(SimdDifferential, LayerNormFusedForwardBackward) {
  const int64_t rows = 61, cols = 37;  // odd col count exercises the tails
  auto x = random_vec(rows * cols, 21);
  auto gamma = random_vec(cols, 22);
  auto beta = random_vec(cols, 23);
  auto dy = random_vec(rows * cols, 24);
  expect_bitwise_across_tiers([&]() {
    std::vector<float> y(rows * cols), dx(rows * cols);
    std::vector<float> dgamma(cols), dbeta(cols);
    kernels::LayerNormStats stats;
    kernels::layernorm_forward_fused(x.data(), gamma.data(), beta.data(),
                                     y.data(), rows, cols, 1e-5f, &stats, 4);
    kernels::layernorm_backward_fused(x.data(), gamma.data(), dy.data(), stats,
                                      dx.data(), dgamma.data(), dbeta.data(),
                                      rows, cols, 8);
    return std::vector<std::vector<float>>{y, dx, dgamma, dbeta, stats.mean,
                                           stats.rstd};
  });
}

TEST(SimdDifferential, SoftmaxForwardBackward) {
  const int64_t rows = 57, cols = 73;
  auto x = random_vec(rows * cols, 61);
  auto dy = random_vec(rows * cols, 62);
  expect_bitwise_across_tiers([&]() {
    std::vector<float> y(rows * cols), dx(rows * cols);
    kernels::softmax_forward(x.data(), y.data(), rows, cols);
    kernels::softmax_backward(y.data(), dy.data(), dx.data(), rows, cols);
    return std::vector<std::vector<float>>{y, dx};
  });
}

TEST(SimdDifferential, ElementwiseBiasAdd) {
  const int64_t rows = 45, cols = 61;
  auto a = random_vec(rows * cols, 43);
  auto bias = random_vec(cols, 44);
  expect_bitwise_across_tiers([&]() {
    std::vector<float> biased(rows * cols);
    kernels::bias_add(a.data(), bias.data(), biased.data(), rows, cols);
    return std::vector<std::vector<float>>{biased};
  });
}

TEST(SimdDifferential, FusedAdamSwaAndGradNorm) {
  const int64_t tensors = 5;
  std::vector<std::vector<float>> base_p, base_g, base_m, base_v, base_s;
  std::vector<int64_t> sizes;
  for (int64_t i = 0; i < tensors; ++i) {
    int64_t n = 500 + 317 * i;
    sizes.push_back(n);
    base_p.push_back(random_vec(n, 400 + i));
    base_g.push_back(random_vec(n, 500 + i));
    base_m.push_back(random_vec(n, 600 + i));
    base_v.push_back(std::vector<float>(n, 0.25f));
    base_s.push_back(random_vec(n, 700 + i));
  }
  kernels::AdamHyper h;
  h.weight_decay = 0.01f;
  expect_bitwise_across_tiers([&]() {
    auto p = base_p, g = base_g, m = base_m, v = base_v, s = base_s;
    std::vector<kernels::ParamChunk> chunks;
    for (int64_t i = 0; i < tensors; ++i) {
      // Every other chunk runs without SWA to cover both code paths.
      float* swa = (i % 2 == 0) ? s[i].data() : nullptr;
      chunks.push_back({p[i].data(), g[i].data(), m[i].data(), v[i].data(),
                        swa, sizes[i]});
    }
    kernels::fused_adam_swa_step(chunks, h, 3, 0.99f, 0.5f);

    std::vector<const float*> gptrs;
    for (int64_t i = 0; i < tensors; ++i) gptrs.push_back(g[i].data());
    float norm = kernels::grad_norm_bucketed(gptrs, sizes);

    std::vector<std::vector<float>> out;
    for (int64_t i = 0; i < tensors; ++i) {
      out.push_back(p[i]);
      out.push_back(m[i]);
      out.push_back(v[i]);
      if (i % 2 == 0) out.push_back(s[i]);
    }
    out.push_back({norm});
    return out;
  });
}

// ---------------------------------------------------------------------------
// Non-finite propagation: the zero-skip removal means NaN/Inf operands
// must poison results exactly as IEEE demands, in every tier.
// ---------------------------------------------------------------------------

TEST(SimdNonFinite, GemmNanClassesMatchAcrossTiers) {
  // NaN payload bits may legitimately differ between a scalar multiply and
  // a packed one, so non-finite inputs compare class-wise (NaN positions
  // and finite-value bits), not via raw memcmp.
  const int64_t m = 9, k = 17, n = 13;
  auto a = random_vec(m * k, 81);
  auto b = random_vec(k * n, 82);
  a[0 * k + 2] = 0.0f;  // the old zero-skip would drop this row's NaN/Inf
  b[2 * n + 1] = std::numeric_limits<float>::quiet_NaN();
  b[2 * n + 3] = std::numeric_limits<float>::infinity();

  TierGuard tier_guard;
  ThreadGuard thread_guard;
  ASSERT_TRUE(simd::set_tier(simd::Tier::kScalar));
  set_num_threads(1);
  std::vector<float> ref(m * n);
  kernels::gemm(a.data(), b.data(), ref.data(), m, k, n);
  EXPECT_TRUE(std::isnan(ref[0 * n + 1]));
  EXPECT_TRUE(std::isnan(ref[0 * n + 3]));  // 0 * inf = NaN

  for (simd::Tier t : available_tiers()) {
    for (int threads : {1, 4}) {
      ASSERT_TRUE(simd::set_tier(t));
      set_num_threads(threads);
      std::vector<float> got(m * n);
      kernels::gemm(a.data(), b.data(), got.data(), m, k, n);
      for (int64_t i = 0; i < m * n; ++i) {
        if (std::isnan(ref[i])) {
          EXPECT_TRUE(std::isnan(got[i]))
              << "element " << i << " tier " << simd::tier_name(t);
        } else {
          EXPECT_EQ(std::memcmp(&ref[i], &got[i], sizeof(float)), 0)
              << "element " << i << " tier " << simd::tier_name(t);
        }
      }
    }
  }
}

TEST(SimdNonFinite, LayerNormNanRowPoisonsOnlyThatRow) {
  const int64_t rows = 12, cols = 33;
  auto x = random_vec(rows * cols, 91);
  auto gamma = random_vec(cols, 92);
  auto beta = random_vec(cols, 93);

  std::vector<float> clean_y(rows * cols);
  kernels::LayerNormStats clean_stats;
  kernels::layernorm_forward_fused(x.data(), gamma.data(), beta.data(),
                                   clean_y.data(), rows, cols, 1e-5f,
                                   &clean_stats, 4);

  const int64_t bad_row = 5;
  x[bad_row * cols + 7] = std::numeric_limits<float>::quiet_NaN();

  TierGuard tier_guard;
  for (simd::Tier t : available_tiers()) {
    ASSERT_TRUE(simd::set_tier(t));
    std::vector<float> y(rows * cols);
    kernels::LayerNormStats stats;
    kernels::layernorm_forward_fused(x.data(), gamma.data(), beta.data(),
                                     y.data(), rows, cols, 1e-5f, &stats, 4);
    // The NaN row's statistics and every output of that row are NaN...
    EXPECT_TRUE(std::isnan(stats.mean[bad_row])) << simd::tier_name(t);
    for (int64_t c = 0; c < cols; ++c) {
      EXPECT_TRUE(std::isnan(y[bad_row * cols + c]))
          << "col " << c << " tier " << simd::tier_name(t);
    }
    // ...while every other row is bitwise untouched by the poison.
    for (int64_t r = 0; r < rows; ++r) {
      if (r == bad_row) continue;
      EXPECT_EQ(std::memcmp(&y[r * cols], &clean_y[r * cols],
                            cols * sizeof(float)),
                0)
          << "row " << r << " tier " << simd::tier_name(t);
    }
  }
}

}  // namespace
}  // namespace sf
