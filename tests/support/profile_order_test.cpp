// The Section IV-E profile orders the rank-maximal and fair tests check
// against.

#include "support/profile_order.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ncpm::test {
namespace {

TEST(Profile, OrdersBehaveAsDocumented) {
  const std::vector<std::int64_t> a{2, 0, 0};
  const std::vector<std::int64_t> b{1, 5, 0};
  // Rank-maximal: a (more rank-1s) beats b.
  EXPECT_TRUE(rank_maximal_less(b, a));
  EXPECT_FALSE(rank_maximal_less(a, b));
  // Fair: compare from the worst bucket; equal there, then bucket 1: a has
  // fewer -> a is fair-smaller (better).
  EXPECT_TRUE(fair_less(a, b));
  const std::vector<std::int64_t> c(3, 0);
  EXPECT_FALSE(fair_less(c, c));
  const std::vector<std::int64_t> d(2, 0);
  EXPECT_THROW(void(fair_less(a, d)), std::invalid_argument);
}

}  // namespace
}  // namespace ncpm::test
