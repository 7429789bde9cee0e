#include "core/ties.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/bipartite_graph.hpp"
#include "matching/hopcroft_karp.hpp"

namespace ncpm::core {

namespace {

using matching::EouLabel;

bool allowed_rank1_edge(EouLabel a, EouLabel p) {
  // Edges no maximum matching of G1 uses: Odd-Odd, Odd-Unreachable and
  // Unreachable-Odd. Even-Even edges cannot exist in G1 (they would expose
  // an augmenting path), so everything else is fair game.
  return (a == EouLabel::Even && p == EouLabel::Odd) ||
         (a == EouLabel::Odd && p == EouLabel::Even) ||
         (a == EouLabel::Unreachable && p == EouLabel::Unreachable);
}

}  // namespace

namespace {

/// The shared Section V machinery: rank-1 subgraph, a maximum matching of
/// it, EOU labels and s(a) per applicant.
struct TiesContext {
  graph::BipartiteGraph g1;
  matching::Matching m1;
  matching::EouDecomposition eou;
  std::vector<std::int32_t> s_post;  ///< one representative (first in list order)
  std::vector<std::int32_t> s_rank;  ///< rank of a's most preferred Even post
};

TiesContext build_ties_context(const Instance& inst) {
  const std::int32_t n_a = inst.num_applicants();
  const std::int32_t n_ext = inst.total_posts();

  // G1: the rank-1 edges over the extended post space.
  std::vector<std::pair<std::int32_t, std::int32_t>> e1;
  for (std::int32_t a = 0; a < n_a; ++a) {
    const auto posts = inst.posts_of(a);
    const auto ranks = inst.ranks_of(a);
    for (std::size_t i = 0; i < posts.size() && ranks[i] == 1; ++i) {
      e1.emplace_back(a, posts[i]);
    }
  }
  graph::BipartiteGraph g1(n_a, n_ext, e1);
  matching::Matching m1 = matching::maximum_matching(g1);
  auto eou = matching::eou_decomposition(g1, m1);

  // s(a): most preferred Even post (ties broken by list order); the last
  // resort, which is exposed in G1 and therefore Even, is the fallback.
  // With ties the s-slot is a rank *level*, not a single post: any Even
  // post tied at the rank of a's most preferred Even post is a valid
  // second-choice target.
  std::vector<std::int32_t> s_post(static_cast<std::size_t>(n_a));
  std::vector<std::int32_t> s_rank(static_cast<std::size_t>(n_a));
  for (std::int32_t a = 0; a < n_a; ++a) {
    std::int32_t s = kNone;
    const auto posts = inst.posts_of(a);
    const auto ranks = inst.ranks_of(a);
    std::int32_t sr = 0;
    for (std::size_t i = 0; i < posts.size(); ++i) {
      if (eou.right[static_cast<std::size_t>(posts[i])] == EouLabel::Even) {
        s = posts[i];
        sr = ranks[i];
        break;
      }
    }
    if (s == kNone) {
      s = inst.last_resort(a);
      sr = inst.num_ranks(a) + 1;
    }
    s_post[static_cast<std::size_t>(a)] = s;
    s_rank[static_cast<std::size_t>(a)] = sr;
  }
  return TiesContext{std::move(g1), std::move(m1), std::move(eou), std::move(s_post),
                     std::move(s_rank)};
}

}  // namespace

std::optional<matching::Matching> find_popular_matching_ties(const Instance& inst) {
  if (!inst.has_last_resorts()) {
    throw std::invalid_argument("find_popular_matching_ties: instance must have last resorts");
  }
  const std::int32_t n_a = inst.num_applicants();
  const std::int32_t n_ext = inst.total_posts();
  const TiesContext ctx = build_ties_context(inst);
  const auto& m1 = ctx.m1;
  const auto& eou = ctx.eou;
  const auto& s_post = ctx.s_post;

  // G'': allowed rank-1 edges, plus the s-edge for Even applicants.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t a = 0; a < n_a; ++a) {
    const auto posts = inst.posts_of(a);
    const auto ranks = inst.ranks_of(a);
    const EouLabel la = eou.left[static_cast<std::size_t>(a)];
    for (std::size_t i = 0; i < posts.size() && ranks[i] == 1; ++i) {
      if (allowed_rank1_edge(la, eou.right[static_cast<std::size_t>(posts[i])])) {
        edges.emplace_back(a, posts[i]);
      }
    }
    if (la == EouLabel::Even) {
      // Every Even post tied at the s-rank is a valid target; offering all
      // of them keeps the feasibility search complete under ties.
      const std::int32_t sr = ctx.s_rank[static_cast<std::size_t>(a)];
      if (s_post[static_cast<std::size_t>(a)] == inst.last_resort(a)) {
        edges.emplace_back(a, inst.last_resort(a));
      } else {
        for (std::size_t i = 0; i < posts.size(); ++i) {
          if (ranks[i] == sr &&
              eou.right[static_cast<std::size_t>(posts[i])] == EouLabel::Even) {
            edges.emplace_back(a, posts[i]);
          }
        }
      }
    }
  }
  const graph::BipartiteGraph g2(n_a, n_ext, edges);

  // Applicant-complete matching of G'' (M1 ⊆ G'', so start from it).
  const matching::Matching ma = matching::maximum_matching(g2, m1);
  if (ma.size() != static_cast<std::size_t>(n_a)) return std::nullopt;

  // Cover all applicants (from ma) and every post m1 covers — in particular
  // all Odd/Unreachable posts — so M ∩ E1 is a maximum matching of G1.
  matching::Matching m = matching::mendelsohn_dulmage(ma, m1);

  // Defensive verification of the characterization.
  if (m.size() != static_cast<std::size_t>(n_a)) {
    throw std::logic_error("ties: Mendelsohn-Dulmage lost an applicant");
  }
  std::size_t rank1_matched = 0;
  for (std::int32_t a = 0; a < n_a; ++a) {
    const std::int32_t p = m.right_of(a);
    if (inst.rank_of(a, p) == 1) ++rank1_matched;
  }
  if (rank1_matched < m1.size()) {
    throw std::logic_error("ties: M ∩ E1 is not a maximum matching of G1");
  }
  return m;
}

bool satisfies_ties_characterization(const Instance& inst, const matching::Matching& m) {
  if (!inst.has_last_resorts()) {
    throw std::invalid_argument("satisfies_ties_characterization: instance must have last resorts");
  }
  if (m.n_left() != inst.num_applicants() || m.n_right() != inst.total_posts()) return false;
  const TiesContext ctx = build_ties_context(inst);
  std::size_t rank1_matched = 0;
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const std::int32_t p = m.right_of(a);
    if (p == matching::kNone) return false;  // must be applicant-complete
    const std::int32_t rank = inst.rank_of(a, p);
    if (rank == kNoRank) return false;  // unacceptable pair
    if (rank == 1) {
      ++rank1_matched;  // (ii): any rank-1 post is in f(a)
    } else {
      // (ii): otherwise it must sit at a's s-rank and be Even (posts tied
      // with the representative s(a) are interchangeable).
      const bool even = inst.is_last_resort(p) ||
                        ctx.eou.right[static_cast<std::size_t>(p)] == EouLabel::Even;
      if (rank != ctx.s_rank[static_cast<std::size_t>(a)] || !even) return false;
    }
  }
  // (i): M ∩ E1 is a maximum matching of G1.
  return rank1_matched == ctx.m1.size();
}

}  // namespace ncpm::core
