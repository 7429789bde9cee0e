// The Hungarian popularity checker against raw double enumeration: on every
// assignment of random instances with at most six applicants (strict and
// tied, with and without last resorts), its unpopularity margin equals the
// largest vote any enumerated matching wins, and its verdict equals the
// brute-force one.

#include "support/popular_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "test_util.hpp"

namespace ncpm::test {
namespace {

/// The same preference lists with the last resorts switched off.
core::Instance without_last_resorts(const core::Instance& inst) {
  std::vector<std::size_t> offsets{0};
  std::vector<std::int32_t> posts, ranks;
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const auto p = inst.posts_of(a);
    const auto r = inst.ranks_of(a);
    posts.insert(posts.end(), p.begin(), p.end());
    ranks.insert(ranks.end(), r.begin(), r.end());
    offsets.push_back(posts.size());
  }
  return core::Instance::from_csr(inst.num_posts(), std::move(offsets), std::move(posts),
                                  std::move(ranks), /*with_last_resorts=*/false);
}

/// max over enumerated M' of votes(M', m), by enumeration.
std::int64_t margin_by_enumeration(const core::Instance& inst, const matching::Matching& m) {
  std::int64_t best = std::numeric_limits<std::int64_t>::min();
  for_each_assignment(inst, [&](const std::vector<std::int32_t>& post_of) {
    best = std::max(best, popularity_votes(inst, assignment_to_matching(inst, post_of), m));
  });
  return best;
}

struct Verdicts {
  std::size_t popular = 0;
  std::size_t unpopular = 0;
};

/// Checks every assignment of `inst` and tallies the verdicts into `seen`,
/// so a caller can tell that both outcomes were exercised.
void expect_agrees_on_every_assignment(const core::Instance& inst, std::uint64_t seed,
                                       Verdicts& seen) {
  ASSERT_LE(inst.num_applicants(), 6);
  std::size_t popular = 0;
  for_each_assignment(inst, [&](const std::vector<std::int32_t>& post_of) {
    const auto m = assignment_to_matching(inst, post_of);
    EXPECT_EQ(unpopularity_margin(inst, m), margin_by_enumeration(inst, m)) << "seed " << seed;
    const bool verdict = is_popular(inst, m);
    EXPECT_EQ(verdict, is_popular_bruteforce(inst, m)) << "seed " << seed;
    popular += verdict ? 1 : 0;
    (verdict ? seen.popular : seen.unpopular) += 1;
  });
  EXPECT_EQ(all_popular_matchings_bruteforce(inst).size(), popular) << "seed " << seed;
}

TEST(PopularOracle, HungarianMatchesEnumerationOnStrictInstances) {
  Verdicts seen;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 2 + static_cast<std::int32_t>(seed % 5);  // 2..6
    cfg.num_posts = 3 + static_cast<std::int32_t>(seed % 3);
    cfg.list_min = 1;
    cfg.list_max = 2 + static_cast<std::int32_t>(seed % 2);
    cfg.seed = seed;
    const auto inst = gen::random_strict_instance(cfg);
    expect_agrees_on_every_assignment(inst, seed, seen);
    expect_agrees_on_every_assignment(without_last_resorts(inst), seed, seen);
  }
  EXPECT_GT(seen.popular, 0u);
  EXPECT_GT(seen.unpopular, 0u);
}

TEST(PopularOracle, HungarianMatchesEnumerationOnTiedInstances) {
  Verdicts seen;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gen::TiesConfig cfg;
    cfg.num_applicants = 2 + static_cast<std::int32_t>(seed % 5);  // 2..6
    cfg.num_posts = 3 + static_cast<std::int32_t>(seed % 3);
    cfg.list_min = 1;
    cfg.list_max = 2 + static_cast<std::int32_t>(seed % 2);
    cfg.tie_prob = 0.5;
    cfg.seed = seed;
    const auto inst = gen::random_ties_instance(cfg);
    expect_agrees_on_every_assignment(inst, seed, seen);
    expect_agrees_on_every_assignment(without_last_resorts(inst), seed, seen);
  }
  EXPECT_GT(seen.popular, 0u);
  EXPECT_GT(seen.unpopular, 0u);
}

TEST(PopularOracle, PaperInstanceMargins) {
  const auto inst = fig1_instance();
  matching::Matching stated(inst.num_applicants(), inst.total_posts());
  matching::Matching last_resorts(inst.num_applicants(), inst.total_posts());
  const auto posts = fig1_paper_matching();
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    stated.match(a, posts[static_cast<std::size_t>(a)]);
    last_resorts.match(a, inst.last_resort(a));
  }
  // The Section II matching is popular; against everyone on a last resort,
  // the stated matching (all eight applicants on real posts) wins 8 votes.
  EXPECT_EQ(unpopularity_margin(inst, stated), 0);
  EXPECT_TRUE(is_popular(inst, stated));
  EXPECT_EQ(unpopularity_margin(inst, last_resorts), 8);
  EXPECT_FALSE(is_popular(inst, last_resorts));
  // An invalid assignment is never popular.
  matching::Matching invalid(inst.num_applicants(), inst.total_posts());
  invalid.match(0, 2);  // p3 is not on a1's list
  EXPECT_FALSE(is_popular(inst, invalid));
  EXPECT_THROW(unpopularity_margin(inst, invalid), std::invalid_argument);
}

}  // namespace
}  // namespace ncpm::test
