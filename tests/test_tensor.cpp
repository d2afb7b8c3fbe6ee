// Tests for the dense tensor substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "tensor/tensor.h"

namespace sf {
namespace {

TEST(Shape, NumelAndStr) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_numel({5, 0, 2}), 0);
  EXPECT_EQ(shape_str({2, 3}), "[2,3]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({3, 4});
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
  EXPECT_EQ(t.numel(), 12);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.dim(1), 4);
}

TEST(Tensor, FromValues) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(t.at(3), 4.0f);
}

TEST(Tensor, FromValuesSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, FullOnesScalar) {
  EXPECT_EQ(Tensor::full({3}, 2.5f).at(1), 2.5f);
  EXPECT_EQ(Tensor::ones({2}).sum(), 2.0f);
  Tensor s = Tensor::scalar(7.0f);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s.at(0), 7.0f);
}

TEST(Tensor, RandnDeterministicPerSeed) {
  Rng r1(3), r2(3);
  Tensor a = Tensor::randn({16}, r1);
  Tensor b = Tensor::randn({16}, r2);
  EXPECT_EQ(a.max_abs_diff(b), 0.0f);
}

TEST(Tensor, ReshapeSharesBuffer) {
  Tensor t({2, 6});
  Tensor v = t.reshape({3, 4});
  v.at(0) = 42.0f;
  EXPECT_EQ(t.at(0), 42.0f);
  EXPECT_THROW(t.reshape({5}), Error);
}

TEST(Tensor, CloneIsDeep) {
  Tensor t = Tensor::full({4}, 1.0f);
  Tensor c = t.clone();
  c.at(0) = 9.0f;
  EXPECT_EQ(t.at(0), 1.0f);
}

TEST(Tensor, CopyFrom) {
  Tensor a = Tensor::full({4}, 3.0f);
  Tensor b({4});
  b.copy_from(a);
  EXPECT_EQ(b.max_abs_diff(a), 0.0f);
  Tensor wrong({5});
  EXPECT_THROW(wrong.copy_from(a), Error);
}

TEST(Tensor, ElementwiseMath) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  EXPECT_EQ(a.add(b).at(2), 33.0f);
  EXPECT_EQ(a.mul(b).at(1), 40.0f);
  EXPECT_EQ(a.scale(2.0f).at(2), 6.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({3});
  Tensor b({4});
  EXPECT_THROW(a.add(b), Error);
  EXPECT_THROW(a.mul(b), Error);
}

TEST(Tensor, InPlaceOps) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  a.add_(b);
  EXPECT_EQ(a.at(1), 6.0f);
  a.scale_(0.5f);
  EXPECT_EQ(a.at(0), 2.0f);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, {1, -2, 3, -4});
  EXPECT_EQ(t.sum(), -2.0f);
  EXPECT_EQ(t.max_abs(), 4.0f);
}

TEST(Tensor, AllFinite) {
  Tensor t({2}, {1.0f, 2.0f});
  EXPECT_TRUE(t.all_finite());
  t.at(1) = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.all_finite());
  t.at(1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(t.all_finite());
}

TEST(Tensor, MaxAbsDiff) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {1, 2.5, 3});
  EXPECT_EQ(a.max_abs_diff(b), 0.5f);
}

TEST(Tensor, FillOverwrites) {
  Rng rng(1);
  Tensor t = Tensor::randn({8}, rng);
  t.fill(0.25f);
  for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(t.at(i), 0.25f);
}

TEST(Tensor, SpanAccess) {
  Tensor t({3}, {1, 2, 3});
  auto s = t.span();
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[2], 3.0f);
}

TEST(Tensor, DefaultIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.numel(), 0);
}

// Parameterized sweep: reshape/clone consistency over many shapes.
class TensorShapeSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(TensorShapeSweep, CloneMatchesAndReshapeRoundtrips) {
  Rng rng(11);
  Shape shape = GetParam();
  Tensor t = Tensor::randn(shape, rng);
  Tensor c = t.clone();
  EXPECT_EQ(t.max_abs_diff(c), 0.0f);
  Tensor flat = t.reshape({t.numel()});
  Tensor back = flat.reshape(shape);
  EXPECT_EQ(back.shape(), shape);
  EXPECT_EQ(t.max_abs_diff(back), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TensorShapeSweep,
                         ::testing::Values(Shape{1}, Shape{7}, Shape{2, 3},
                                           Shape{4, 1, 5}, Shape{2, 2, 2, 2},
                                           Shape{1, 1, 1}, Shape{64, 3}));

}  // namespace
}  // namespace sf
