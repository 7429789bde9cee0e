#include "support/rank1_reduction.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "matching/hopcroft_karp.hpp"

namespace ncpm::test {

core::Instance rank1_instance(const graph::BipartiteGraph& g) {
  // One tie group per applicant: every incident edge at rank 1.
  std::vector<std::size_t> offsets{0};
  offsets.reserve(static_cast<std::size_t>(g.n_left()) + 1);
  std::vector<std::int32_t> posts;
  for (std::int32_t l = 0; l < g.n_left(); ++l) {
    for (const auto e : g.left_incident(l)) {
      posts.push_back(g.edge_right(static_cast<std::size_t>(e)));
    }
    offsets.push_back(posts.size());
  }
  std::vector<std::int32_t> ranks(posts.size(), 1);
  return core::Instance::from_csr(g.n_right(), std::move(offsets), std::move(posts),
                                  std::move(ranks), /*with_last_resorts=*/false);
}

matching::Matching popular_matching_rank1(const core::Instance& inst) {
  if (inst.has_last_resorts()) {
    throw std::invalid_argument("popular_matching_rank1: expects a no-last-resort instance");
  }
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    for (const auto p : inst.posts_of(a)) edges.emplace_back(a, p);
  }
  const graph::BipartiteGraph g(inst.num_applicants(), inst.total_posts(), std::move(edges));
  // Lemma 13: any maximum matching is popular here (and Lemma 12: popular
  // implies maximum), so the maximum-matching black box answers the query.
  return matching::maximum_matching(g);
}

matching::Matching max_card_bipartite_via_popular(const graph::BipartiteGraph& g) {
  return popular_matching_rank1(rank1_instance(g));
}

}  // namespace ncpm::test
