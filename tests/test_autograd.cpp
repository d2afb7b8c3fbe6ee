// Gradient checks for every autograd op against central finite
// differences, plus tape-structure tests (diamonds, detach, zero_grad).
#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"

namespace sf::autograd {
namespace {

Var leaf(Shape shape, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  return Var(Tensor::randn(std::move(shape), rng, 0.0f, stddev),
             /*requires_grad=*/true);
}

// Reduce any tensor to a scalar with fixed random weights so gradients are
// non-trivial in every element.
Var to_scalar(const Var& x, uint64_t seed = 999) {
  Rng rng(seed);
  Tensor w = Tensor::randn(x.shape(), rng);
  return sum(mul(x, Var(w, false)));
}

void expect_gradcheck(
    const std::function<Var(const std::vector<Var>&)>& fn,
    std::vector<Var> leaves, float step = 1e-2f) {
  auto result = grad_check(fn, leaves, step);
  EXPECT_TRUE(result.ok) << result.detail
                         << " max_abs=" << result.max_abs_err
                         << " max_rel=" << result.max_rel_err;
}

TEST(Autograd, AddGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) { return to_scalar(add(v[0], v[1])); },
      {leaf({3, 4}, 1), leaf({3, 4}, 2)});
}

TEST(Autograd, MulGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) { return to_scalar(mul(v[0], v[1])); },
      {leaf({6}, 5), leaf({6}, 6)});
}

TEST(Autograd, ScaleGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) { return to_scalar(scale(v[0], 2.5f)); },
      {leaf({7}, 7)});
}

TEST(Autograd, LinearGradWithBias) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(linear(v[0], v[1], &v[2]));
      },
      {leaf({5, 3}, 10, 0.5f), leaf({3, 4}, 11, 0.5f), leaf({4}, 12)});
}

TEST(Autograd, LinearGradHighRankInput) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(linear(v[0], v[1]));
      },
      {leaf({2, 3, 4}, 13, 0.5f), leaf({4, 3}, 14, 0.5f)});
}

TEST(Autograd, GeluGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) { return to_scalar(gelu(v[0])); },
      {leaf({12}, 19)});
}

TEST(Autograd, GluGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) { return to_scalar(glu(v[0], v[1])); },
      {leaf({8}, 21), leaf({8}, 22)});
}

TEST(Autograd, ReshapeGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(reshape(v[0], {6, 2}));
      },
      {leaf({3, 4}, 23)});
}

TEST(Autograd, SumGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) { return sum(v[0]); }, {leaf({5}, 24)});
}

TEST(Autograd, WeightedMseGrad) {
  Rng rng(26);
  Tensor target = Tensor::randn({6}, rng);
  Tensor weight = Tensor::rand({6}, rng, 0.1f, 2.0f);
  expect_gradcheck(
      [target, weight](const std::vector<Var>& v) {
        return weighted_mse(v[0], target, &weight);
      },
      {leaf({6}, 27)});
}

TEST(Autograd, LayerNormGradFused) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(layernorm(v[0], v[1], v[2], 1e-5f, true));
      },
      {leaf({4, 6}, 29), leaf({6}, 30, 0.3f), leaf({6}, 31, 0.3f)});
}

TEST(Autograd, LayerNormGradNaive) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(layernorm(v[0], v[1], v[2], 1e-5f, false));
      },
      {leaf({3, 5}, 32), leaf({5}, 33, 0.3f), leaf({5}, 34, 0.3f)});
}

TEST(Autograd, MhaGradFlashWithBiasAndMask) {
  Tensor mask({2, 3});
  mask.at(2) = -1e9f;  // mask one key of batch 0
  expect_gradcheck(
      [mask](const std::vector<Var>& v) {
        return to_scalar(mha(v[0], v[1], v[2], &v[3], &mask, true));
      },
      {leaf({2, 1, 2, 3}, 35, 0.5f), leaf({2, 1, 3, 3}, 36, 0.5f),
       leaf({2, 1, 3, 3}, 37, 0.5f), leaf({1, 2, 3}, 38, 0.5f)});
}

TEST(Autograd, MhaGradNaive) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(mha(v[0], v[1], v[2], &v[3], nullptr, false));
      },
      {leaf({1, 2, 3, 2}, 39, 0.5f), leaf({1, 2, 4, 2}, 40, 0.5f),
       leaf({1, 2, 4, 2}, 41, 0.5f), leaf({2, 3, 4}, 42, 0.5f)});
}

TEST(Autograd, SplitMergeHeadsGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        Var heads = split_heads(v[0], 2, 3, 2, 2);
        return to_scalar(merge_heads(heads));
      },
      {leaf({6, 4}, 43)});
}

TEST(Autograd, SplitMergeHeadsRoundtripIdentity) {
  Var x = leaf({6, 4}, 44);
  Var round = merge_heads(split_heads(x, 2, 3, 2, 2));
  EXPECT_EQ(x.value().max_abs_diff(round.value()), 0.0f);
}

TEST(Autograd, Permute3Grad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(permute3(v[0], {2, 0, 1}));
      },
      {leaf({2, 3, 4}, 45)});
}

TEST(Autograd, Permute3RoundtripIdentity) {
  Var x = leaf({2, 3, 4}, 46);
  // {1,0,2} is an involution.
  Var round = permute3(permute3(x, {1, 0, 2}), {1, 0, 2});
  EXPECT_EQ(x.value().max_abs_diff(round.value()), 0.0f);
}

TEST(Autograd, TakeLeadingGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(take_leading(v[0], 2));
      },
      {leaf({4, 3}, 47)});
}

TEST(Autograd, AddBcast0Grad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(add_bcast0(v[0], v[1]));
      },
      {leaf({3, 2, 2}, 48), leaf({2, 2}, 49)});
}

TEST(Autograd, OuterSumGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(outer_sum(v[0], v[1]));
      },
      {leaf({3, 2}, 50), leaf({3, 2}, 51)});
}

TEST(Autograd, OuterProductMeanGrad) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(outer_product_mean(v[0], v[1]));
      },
      {leaf({2, 3, 2}, 52, 0.5f), leaf({2, 3, 2}, 53, 0.5f)});
}

TEST(Autograd, TriangleMultiplyGradOutgoing) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(triangle_multiply(v[0], v[1], true));
      },
      {leaf({3, 3, 2}, 54, 0.5f), leaf({3, 3, 2}, 55, 0.5f)});
}

TEST(Autograd, TriangleMultiplyGradIncoming) {
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(triangle_multiply(v[0], v[1], false));
      },
      {leaf({3, 3, 2}, 56, 0.5f), leaf({3, 3, 2}, 57, 0.5f)});
}

TEST(Autograd, PairwiseDistGrad) {
  // Spread points out so distances are differentiable.
  Rng rng(58);
  Tensor pos = Tensor::randn({4, 3}, rng, 0.0f, 3.0f);
  expect_gradcheck(
      [](const std::vector<Var>& v) {
        return to_scalar(pairwise_dist(v[0]));
      },
      {Var(pos, true)});
}

TEST(Autograd, Bf16PassthroughGradIsIdentity) {
  Var x = leaf({5}, 59);
  Var y = bf16_round_st(x);
  backward(sum(y));
  Tensor g = x.grad();
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(g.at(i), 1.0f);
}

TEST(Autograd, DiamondGraphAccumulatesBothPaths) {
  Var x = Var(Tensor({1}, {3.0f}), true);
  Var a = scale(x, 2.0f);
  Var b = scale(x, 5.0f);
  Var y = add(a, b);  // y = 7x
  backward(sum(y));
  EXPECT_NEAR(x.grad().at(0), 7.0f, 1e-6f);
}

TEST(Autograd, ReusedNodeGradCountsMultiplicity) {
  Var x = Var(Tensor({1}, {2.0f}), true);
  Var y = mul(x, x);  // y = x^2, dy/dx = 2x = 4
  backward(sum(y));
  EXPECT_NEAR(x.grad().at(0), 4.0f, 1e-6f);
}

TEST(Autograd, StopGradientBlocksFlow) {
  Var x = Var(Tensor({1}, {3.0f}), true);
  Var y = mul(stop_gradient(scale(x, 2.0f)), x);  // treat 2x as constant 6
  backward(sum(y));
  EXPECT_NEAR(x.grad().at(0), 6.0f, 1e-6f);
}

TEST(Autograd, ZeroGradClears) {
  Var x = Var(Tensor({1}, {1.0f}), true);
  backward(sum(scale(x, 3.0f)));
  EXPECT_NE(x.grad().at(0), 0.0f);
  x.zero_grad();
  EXPECT_EQ(x.grad().at(0), 0.0f);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  Var x = Var(Tensor({2}, {1.0f, 2.0f}), true);
  EXPECT_THROW(backward(x), Error);
}

TEST(Autograd, NoGradLeavesUntouched) {
  Var x = Var(Tensor({2}, {1.0f, 2.0f}), false);
  Var y = Var(Tensor({2}, {3.0f, 4.0f}), true);
  Var z = mul(x, y);
  backward(sum(z));
  EXPECT_EQ(x.grad().max_abs(), 0.0f);
  EXPECT_GT(y.grad().max_abs(), 0.0f);
}

TEST(Autograd, GradAccumulatesAcrossBackwards) {
  // Two separate graphs from the same leaf accumulate (PyTorch semantics).
  Var x = Var(Tensor({1}, {1.0f}), true);
  backward(sum(scale(x, 2.0f)));
  backward(sum(scale(x, 3.0f)));
  EXPECT_NEAR(x.grad().at(0), 5.0f, 1e-6f);
}


TEST(Autograd, DropoutStatisticsAndScaling) {
  Rng rng(61);
  Var x(Tensor::ones({4000}), true);
  Var y = dropout_rows(x, 0.25f, rng);  // rank 1: one draw per element
  int64_t zeros = 0;
  double sum = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    float v = y.value().at(i);
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 1.0f / 0.75f) < 1e-6f);
    zeros += v == 0.0f;
    sum += v;
  }
  EXPECT_NEAR(zeros / 4000.0, 0.25, 0.03);          // drop rate
  EXPECT_NEAR(sum / 4000.0, 1.0, 0.05);             // mean preserved
}

TEST(Autograd, DropoutZeroRateIsIdentity) {
  Rng rng(62);
  Var x = leaf({16}, 63);
  Var y = dropout_rows(x, 0.0f, rng);
  EXPECT_EQ(x.value().max_abs_diff(y.value()), 0.0f);
}

TEST(Autograd, DropoutBackwardGatesGradient) {
  Rng rng(64);
  Var x(Tensor::ones({64}), true);
  Var y = dropout_rows(x, 0.5f, rng);
  backward(sum(y));
  for (int64_t i = 0; i < 64; ++i) {
    float g = x.grad().at(i);
    float v = y.value().at(i);
    if (v == 0.0f) {
      EXPECT_EQ(g, 0.0f);
    } else {
      EXPECT_NEAR(g, 2.0f, 1e-6f);  // 1/(1-p)
    }
  }
}

TEST(Autograd, DropoutRowsSharesMaskPerRow) {
  Rng rng(65);
  Var x(Tensor::ones({20, 8}), true);
  Var y = dropout_rows(x, 0.4f, rng);
  for (int64_t r = 0; r < 20; ++r) {
    float first = y.value().at(r * 8);
    for (int64_t c = 1; c < 8; ++c) {
      EXPECT_EQ(y.value().at(r * 8 + c), first) << "row " << r;
    }
  }
}

}  // namespace
}  // namespace sf::autograd
