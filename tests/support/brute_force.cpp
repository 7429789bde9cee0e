#include "support/brute_force.hpp"

namespace ncpm::test {

using matching::kNone;

namespace {

void enumerate(const graph::BipartiteGraph& g, std::int32_t l, std::vector<std::int32_t>& right_of,
               std::vector<std::uint8_t>& right_used,
               const std::function<void(const std::vector<std::int32_t>&)>& visit) {
  if (l == g.n_left()) {
    visit(right_of);
    return;
  }
  // Leave l unmatched.
  enumerate(g, l + 1, right_of, right_used, visit);
  for (const auto e : g.left_incident(l)) {
    const std::int32_t r = g.edge_right(static_cast<std::size_t>(e));
    if (right_used[static_cast<std::size_t>(r)] != 0) continue;
    right_used[static_cast<std::size_t>(r)] = 1;
    right_of[static_cast<std::size_t>(l)] = r;
    enumerate(g, l + 1, right_of, right_used, visit);
    right_of[static_cast<std::size_t>(l)] = kNone;
    right_used[static_cast<std::size_t>(r)] = 0;
  }
}

}  // namespace

void for_each_matching(const graph::BipartiteGraph& g,
                       const std::function<void(const std::vector<std::int32_t>&)>& visit) {
  std::vector<std::int32_t> right_of(static_cast<std::size_t>(g.n_left()), kNone);
  std::vector<std::uint8_t> right_used(static_cast<std::size_t>(g.n_right()), 0);
  enumerate(g, 0, right_of, right_used, visit);
}

std::size_t brute_force_max_matching_size(const graph::BipartiteGraph& g) {
  std::size_t best = 0;
  for_each_matching(g, [&](const std::vector<std::int32_t>& right_of) {
    std::size_t size = 0;
    for (const auto r : right_of) {
      if (r != kNone) ++size;
    }
    if (size > best) best = size;
  });
  return best;
}

}  // namespace ncpm::test
