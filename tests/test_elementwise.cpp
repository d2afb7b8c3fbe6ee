// Tests for the elementwise kernels and small fusions.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "kernels/elementwise.h"

namespace sf::kernels {
namespace {

std::vector<float> randoms(size_t n, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  fill_normal(rng, v.data(), n, 0.0f, stddev);
  return v;
}

TEST(Gelu, KnownValues) {
  std::vector<float> x{0.0f}, y(1);
  gelu_forward(x.data(), y.data(), 1);
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  x[0] = 10.0f;  // saturates to identity
  gelu_forward(x.data(), y.data(), 1);
  EXPECT_NEAR(y[0], 10.0f, 1e-3f);
  x[0] = -10.0f;  // saturates to zero
  gelu_forward(x.data(), y.data(), 1);
  EXPECT_NEAR(y[0], 0.0f, 1e-3f);
}

TEST(Gelu, BackwardMatchesFiniteDifferences) {
  auto x = randoms(32, 3);
  std::vector<float> dy(32, 1.0f), dx(32);
  gelu_backward(x.data(), dy.data(), dx.data(), 32);
  const float h = 1e-3f;
  for (int i = 0; i < 32; ++i) {
    float xp = x[i] + h, xm = x[i] - h, yp, ym;
    gelu_forward(&xp, &yp, 1);
    gelu_forward(&xm, &ym, 1);
    EXPECT_NEAR(dx[i], (yp - ym) / (2 * h), 2e-3f);
  }
}

TEST(BiasAdd, Broadcasts) {
  std::vector<float> x{1, 2, 3, 4}, bias{10, 20}, y(4);
  bias_add(x.data(), bias.data(), y.data(), 2, 2);
  EXPECT_EQ(y[0], 11.0f);
  EXPECT_EQ(y[1], 22.0f);
  EXPECT_EQ(y[2], 13.0f);
  EXPECT_EQ(y[3], 24.0f);
}

TEST(FusedGlu, ForwardMatchesComposition) {
  auto x = randoms(32, 11);
  auto gate = randoms(32, 12);
  std::vector<float> expect(32), y(32);
  for (int i = 0; i < 32; ++i) {
    expect[i] = x[i] / (1.0f + std::exp(-gate[i]));
  }
  fused_glu_forward(x.data(), gate.data(), y.data(), 32);
  for (int i = 0; i < 32; ++i) EXPECT_NEAR(y[i], expect[i], 1e-6f);
}

TEST(FusedGlu, BackwardMatchesFiniteDifferences) {
  auto x = randoms(8, 13);
  auto gate = randoms(8, 14);
  std::vector<float> dy(8, 1.0f), dx(8), dgate(8);
  fused_glu_backward(x.data(), gate.data(), dy.data(), dx.data(), dgate.data(),
                     8);
  const float h = 1e-3f;
  for (int i = 0; i < 8; ++i) {
    auto eval = [&](float xi, float gi) {
      float y;
      fused_glu_forward(&xi, &gi, &y, 1);
      return y;
    };
    float num_dx = (eval(x[i] + h, gate[i]) - eval(x[i] - h, gate[i])) / (2 * h);
    float num_dg = (eval(x[i], gate[i] + h) - eval(x[i], gate[i] - h)) / (2 * h);
    EXPECT_NEAR(dx[i], num_dx, 2e-3f);
    EXPECT_NEAR(dgate[i], num_dg, 2e-3f);
  }
}

}  // namespace
}  // namespace sf::kernels
