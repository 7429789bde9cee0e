// Instance model: validation, rank lookups, preference comparisons, ties,
// last resorts and the no-last-resort mode of Theorem 11.

#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/generators.hpp"

namespace ncpm::core {
namespace {

TEST(Instance, StrictBasics) {
  const auto inst = Instance::strict(4, {{2, 0}, {1}});
  EXPECT_EQ(inst.num_applicants(), 2);
  EXPECT_EQ(inst.num_posts(), 4);
  EXPECT_TRUE(inst.strict_prefs());
  EXPECT_TRUE(inst.has_last_resorts());
  EXPECT_EQ(inst.total_posts(), 6);
  EXPECT_EQ(inst.last_resort(0), 4);
  EXPECT_EQ(inst.last_resort(1), 5);
  EXPECT_EQ(inst.list_length(0), 2u);
  EXPECT_EQ(inst.num_ranks(0), 2);
  EXPECT_EQ(inst.max_ranks(), 2);
}

TEST(Instance, RankLookups) {
  const auto inst = Instance::strict(4, {{2, 0, 3}});
  EXPECT_EQ(inst.rank_of(0, 2), 1);
  EXPECT_EQ(inst.rank_of(0, 0), 2);
  EXPECT_EQ(inst.rank_of(0, 3), 3);
  EXPECT_EQ(inst.rank_of(0, 1), kNoRank);          // unacceptable
  EXPECT_EQ(inst.rank_of(0, inst.last_resort(0)), 4);  // list length + 1
  EXPECT_EQ(inst.rank_of(0, kNone), kNoRank);
}

TEST(Instance, PrefersIncludingUnmatched) {
  const auto inst = Instance::strict(3, {{1, 0}});
  EXPECT_TRUE(inst.prefers(0, 1, 0));
  EXPECT_FALSE(inst.prefers(0, 0, 1));
  EXPECT_FALSE(inst.prefers(0, 1, 1));
  EXPECT_TRUE(inst.prefers(0, 0, inst.last_resort(0)));
  EXPECT_TRUE(inst.prefers(0, inst.last_resort(0), kNone));  // matched beats unmatched
}

TEST(Instance, TiesShareRanks) {
  const auto inst = Instance::with_ties(5, {{{3}, {1, 2}, {0}}});
  EXPECT_FALSE(inst.strict_prefs());
  EXPECT_EQ(inst.rank_of(0, 3), 1);
  EXPECT_EQ(inst.rank_of(0, 1), 2);
  EXPECT_EQ(inst.rank_of(0, 2), 2);
  EXPECT_EQ(inst.rank_of(0, 0), 3);
  EXPECT_FALSE(inst.prefers(0, 1, 2));  // indifferent
  EXPECT_FALSE(inst.prefers(0, 2, 1));
  EXPECT_EQ(inst.num_ranks(0), 3);
}

TEST(Instance, NoLastResortMode) {
  const auto inst = Instance::with_ties(3, {{{0, 1}}, {}}, /*with_last_resorts=*/false);
  EXPECT_FALSE(inst.has_last_resorts());
  EXPECT_EQ(inst.total_posts(), 3);
  EXPECT_THROW(inst.last_resort(0), std::logic_error);
  EXPECT_EQ(inst.list_length(1), 0u);  // empty lists allowed here
}

TEST(Instance, ValidationErrors) {
  EXPECT_THROW(Instance::strict(2, {{0, 0}}), std::invalid_argument);   // duplicate post
  EXPECT_THROW(Instance::strict(2, {{5}}), std::out_of_range);          // post out of range
  EXPECT_THROW(Instance::strict(2, {{}}), std::invalid_argument);       // empty list w/ last resorts
  EXPECT_THROW(Instance::with_ties(2, {{{}}}), std::invalid_argument);  // empty tie group
  EXPECT_THROW(Instance::strict(-1, {}), std::invalid_argument);        // negative posts
  // The flat constructor every path goes through.
  const auto csr = [](std::vector<std::size_t> off, std::vector<std::int32_t> posts,
                      std::vector<std::int32_t> ranks, bool last_resorts = true) {
    return Instance::from_csr(3, std::move(off), std::move(posts), std::move(ranks),
                              last_resorts);
  };
  EXPECT_NO_THROW(csr({0, 2, 3}, {0, 1, 2}, {1, 1, 1}));
  EXPECT_THROW(csr({0, 3, 2, 3}, {0, 1, 2}, {1, 2, 3}), std::invalid_argument);  // not monotone
  EXPECT_THROW(csr({0, 2}, {0, 1, 2}, {1, 2, 3}), std::invalid_argument);  // misses an entry
  EXPECT_THROW(csr({1, 3}, {0, 1, 2}, {1, 2, 3}), std::invalid_argument);  // starts past 0
  EXPECT_THROW(csr({}, {}, {}), std::invalid_argument);                    // no offsets at all
  EXPECT_THROW(csr({0, 2}, {0, 1}, {1}), std::invalid_argument);           // ranks short
  EXPECT_THROW(csr({0, 2}, {0, 1}, {2, 3}), std::invalid_argument);        // first rank not 1
  EXPECT_THROW(csr({0, 2}, {0, 1}, {1, 3}), std::invalid_argument);        // rank step of 2
  EXPECT_THROW(csr({0, 2}, {0, 1}, {1, 0}), std::invalid_argument);        // rank steps down
  EXPECT_THROW(csr({0, 2}, {1, 1}, {1, 2}), std::invalid_argument);        // duplicate
  EXPECT_THROW(csr({0, 2}, {1, 1}, {1, 1}), std::invalid_argument);        // duplicate in a tie
  EXPECT_THROW(csr({0, 1}, {3}, {1}), std::out_of_range);                  // id out of range
  EXPECT_THROW(csr({0, 1}, {-1}, {1}), std::out_of_range);                 // negative id
  EXPECT_THROW(csr({0, 1, 1}, {0}, {1}), std::invalid_argument);  // empty list w/ last resorts
  EXPECT_NO_THROW(csr({0, 1, 1}, {0}, {1}, /*last_resorts=*/false));
}

TEST(Instance, RankOfMatchesRanksOf) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    gen::TiesConfig cfg;
    cfg.num_applicants = 40;
    cfg.num_posts = 30;
    cfg.list_min = 1;
    cfg.list_max = 12;
    cfg.tie_prob = 0.4;
    cfg.seed = seed;
    const auto inst = gen::random_ties_instance(cfg);
    bool any_tie = false;
    std::int32_t max_ranks = 0;
    for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
      const auto posts = inst.posts_of(a);
      const auto ranks = inst.ranks_of(a);
      for (std::size_t i = 0; i < posts.size(); ++i) {
        EXPECT_EQ(inst.rank_of(a, posts[i]), ranks[i]) << "seed " << seed << " a " << a;
        if (i > 0 && ranks[i] == ranks[i - 1]) any_tie = true;
      }
      for (std::int32_t p = 0; p < inst.num_posts(); ++p) {
        if (std::find(posts.begin(), posts.end(), p) == posts.end()) {
          EXPECT_EQ(inst.rank_of(a, p), kNoRank) << "seed " << seed << " a " << a;
        }
      }
      EXPECT_EQ(inst.num_ranks(a), ranks.back());
      EXPECT_EQ(inst.rank_of(a, inst.last_resort(a)), ranks.back() + 1);
      max_ranks = std::max(max_ranks, ranks.back());
    }
    EXPECT_EQ(inst.max_ranks(), max_ranks);
    EXPECT_EQ(inst.strict_prefs(), !any_tie);
    EXPECT_TRUE(any_tie) << "seed " << seed << " should draw some ties";
  }
  const auto strict = Instance::strict(4, {{3, 1, 2}, {0}});
  EXPECT_TRUE(strict.strict_prefs());
  EXPECT_EQ(strict.max_ranks(), 3);
  const auto empty = Instance::with_ties(2, {{}}, /*with_last_resorts=*/false);
  EXPECT_EQ(empty.num_ranks(0), 0);
  EXPECT_EQ(empty.max_ranks(), 0);
}

TEST(Instance, OtherApplicantsLastResortIsUnacceptable) {
  const auto inst = Instance::strict(2, {{0}, {1}});
  EXPECT_EQ(inst.rank_of(0, inst.last_resort(1)), kNoRank);
  EXPECT_EQ(inst.rank_of(1, inst.last_resort(0)), kNoRank);
}

TEST(Instance, ApplicantOutOfRangeThrows) {
  const auto inst = Instance::strict(2, {{0}});
  EXPECT_THROW(inst.rank_of(5, 0), std::out_of_range);
  EXPECT_THROW(inst.last_resort(-1), std::out_of_range);
}

}  // namespace
}  // namespace ncpm::core
