// Parameterized gradient-check sweeps: every core op family re-verified
// across randomized shapes and seeds (property-style coverage beyond the
// hand-picked cases in test_autograd.cpp).
#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"

namespace sf::autograd {
namespace {

struct SweepParam {
  int64_t d0, d1, d2;
  uint64_t seed;
};

Var leaf(Shape shape, Rng& rng, float stddev = 0.6f) {
  return Var(Tensor::randn(std::move(shape), rng, 0.0f, stddev), true);
}

Var to_scalar(const Var& x, uint64_t seed) {
  Rng rng(seed);
  Tensor w = Tensor::randn(x.shape(), rng);
  return sum(mul(x, Var(w, false)));
}

void check(const std::function<Var(const std::vector<Var>&)>& fn,
           std::vector<Var> leaves) {
  auto result = grad_check(fn, leaves, 1e-2f);
  EXPECT_TRUE(result.ok) << result.detail << " abs=" << result.max_abs_err;
}

class OpSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OpSweep, ElementwiseChain) {
  auto p = GetParam();
  Rng rng(p.seed);
  check(
      [&p](const std::vector<Var>& v) {
        return to_scalar(gelu(glu(add(v[0], v[1]), v[0])), p.seed);
      },
      {leaf({p.d0, p.d1}, rng), leaf({p.d0, p.d1}, rng)});
}

TEST_P(OpSweep, LinearThenNorm) {
  auto p = GetParam();
  Rng rng(p.seed + 1);
  check(
      [&p](const std::vector<Var>& v) {
        Var y = linear(v[0], v[1], &v[2]);
        return to_scalar(layernorm(y, v[3], v[4]), p.seed);
      },
      {leaf({p.d0, p.d1}, rng), leaf({p.d1, p.d2}, rng), leaf({p.d2}, rng),
       leaf({p.d2}, rng, 0.3f), leaf({p.d2}, rng, 0.3f)});
}

TEST_P(OpSweep, AttentionCore) {
  auto p = GetParam();
  Rng rng(p.seed + 2);
  // b=1, h=1, sq=d0 (capped), sk=d1 (capped), dim=d2 (capped) keeps the
  // finite-difference loops cheap.
  int64_t sq = std::min<int64_t>(p.d0, 3), sk = std::min<int64_t>(p.d1, 4),
          dm = std::min<int64_t>(p.d2, 3);
  check(
      [=](const std::vector<Var>& v) {
        return to_scalar(mha(v[0], v[1], v[2], &v[3], nullptr, true),
                         p.seed);
      },
      {leaf({1, 1, sq, dm}, rng), leaf({1, 1, sk, dm}, rng),
       leaf({1, 1, sk, dm}, rng), leaf({1, sq, sk}, rng)});
}

TEST_P(OpSweep, FoldPrimitives) {
  auto p = GetParam();
  Rng rng(p.seed + 3);
  int64_t r = std::min<int64_t>(p.d0, 3), c = std::min<int64_t>(p.d2, 2);
  check(
      [=](const std::vector<Var>& v) {
        Var t = triangle_multiply(v[0], v[1], (p.seed % 2) == 0);
        return to_scalar(t, p.seed);
      },
      {leaf({r, r, c}, rng), leaf({r, r, c}, rng)});
  Rng rng2(p.seed + 4);
  int64_t s = std::min<int64_t>(p.d1, 3);
  check(
      [=](const std::vector<Var>& v) {
        return to_scalar(outer_product_mean(v[0], v[1]), p.seed);
      },
      {leaf({s, r, c}, rng2), leaf({s, r, c}, rng2)});
}

TEST_P(OpSweep, PermutationsRoundTrip) {
  auto p = GetParam();
  Rng rng(p.seed + 5);
  Var x = leaf({p.d0, p.d1, p.d2}, rng);
  for (std::array<int, 3> perm :
       {std::array<int, 3>{0, 1, 2}, {1, 0, 2}, {2, 0, 1}, {0, 2, 1}}) {
    Var y = permute3(x, perm);
    // Permutation preserves multiset of values.
    EXPECT_NEAR(y.value().sum(), x.value().sum(), 1e-3f);
    EXPECT_EQ(y.numel(), x.numel());
  }
  check(
      [](const std::vector<Var>& v) {
        return to_scalar(permute3(v[0], {2, 0, 1}), 5);
      },
      {x});
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OpSweep,
    ::testing::Values(SweepParam{2, 3, 4, 100}, SweepParam{1, 1, 1, 101},
                      SweepParam{4, 2, 5, 102}, SweepParam{3, 5, 2, 103},
                      SweepParam{5, 4, 3, 104}, SweepParam{2, 6, 2, 105},
                      SweepParam{6, 2, 3, 106}, SweepParam{3, 3, 3, 107}));

}  // namespace
}  // namespace sf::autograd
