// Tests for software bfloat16: rounding semantics, special values, and the
// numerics that §3.4 relies on (bf16 converges where fp16 NaNs).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "tensor/bfloat16.h"

namespace sf {
namespace {

TEST(BFloat16, ExactForSmallIntegers) {
  for (float f : {0.0f, 1.0f, -1.0f, 2.0f, 100.0f, -256.0f}) {
    EXPECT_EQ(BFloat16(f).to_float(), f);
  }
}

TEST(BFloat16, PowersOfTwoAreExact) {
  for (int e = -30; e <= 30; ++e) {
    float f = std::ldexp(1.0f, e);
    EXPECT_EQ(BFloat16(f).to_float(), f) << "exp " << e;
  }
}

TEST(BFloat16, RelativeErrorBounded) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    float f = static_cast<float>(rng.normal()) * 100.0f;
    if (f == 0.0f) continue;
    float r = BFloat16(f).to_float();
    // 8-bit mantissa => relative error < 2^-8.
    EXPECT_LE(std::fabs(r - f) / std::fabs(f), 1.0f / 256.0f);
  }
}

TEST(BFloat16, RoundToNearestEven) {
  // 1 + 2^-8 is exactly halfway between bf16(1.0) and the next value
  // (1 + 2^-7); round-to-even keeps the even mantissa (1.0... pattern).
  float halfway = 1.0f + 1.0f / 256.0f;
  float rounded = BFloat16(halfway).to_float();
  EXPECT_EQ(rounded, 1.0f);
  // Slightly above halfway must round up.
  float above = 1.0f + 1.5f / 256.0f;
  EXPECT_GT(BFloat16(above).to_float(), 1.0f);
}

TEST(BFloat16, NanStaysNan) {
  float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(BFloat16(nan).to_float()));
}

TEST(BFloat16, InfinityPreserved) {
  float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(BFloat16(inf).to_float(), inf);
  EXPECT_EQ(BFloat16(-inf).to_float(), -inf);
}

TEST(BFloat16, LargeValuesDoNotOverflowToInf) {
  // bf16 has fp32's exponent range: 3e38 must survive.
  float big = 3e38f;
  EXPECT_TRUE(std::isfinite(BFloat16(big).to_float()));
}

TEST(BFloat16, SmallValuesKeepSign) {
  EXPECT_LE(BFloat16(-1e-30f).to_float(), 0.0f);
  EXPECT_GE(BFloat16(1e-30f).to_float(), 0.0f);
}

TEST(BFloat16, RoundtripIdempotent) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    float f = static_cast<float>(rng.normal());
    float once = bf16_round(f);
    float twice = bf16_round(once);
    EXPECT_EQ(once, twice);
  }
}

TEST(BFloat16, BufferRounding) {
  std::vector<float> buf{1.00001f, 2.5f, -3.14159f, 1e-8f};
  std::vector<float> expect;
  for (float f : buf) expect.push_back(bf16_round(f));
  bf16_round_buffer(buf.data(), buf.size());
  EXPECT_EQ(buf, expect);
}

TEST(BFloat16, AssignmentOperator) {
  BFloat16 b;
  b = 3.5f;
  EXPECT_EQ(static_cast<float>(b), 3.5f);
}

TEST(BFloat16, EqualityComparesBits) {
  EXPECT_EQ(BFloat16(1.5f), BFloat16(1.5f));
  EXPECT_FALSE(BFloat16(1.5f) == BFloat16(2.5f));
}

// The §3.4 motivation: gradients of magnitude ~1e-6 times parameters ~1
// vanish in fp16's 5-bit exponent when squared (1e-12 < fp16 min normal)
// but survive bf16's 8-bit exponent.
TEST(BFloat16, SmallGradientSquaresSurvive) {
  float g = 1e-6f;
  float g2 = g * g;  // 1e-12
  EXPECT_GT(BFloat16(g2).to_float(), 0.0f);  // bf16 keeps it
  // fp16's smallest subnormal is ~6e-8: 1e-12 would flush to zero there.
}

}  // namespace
}  // namespace sf
