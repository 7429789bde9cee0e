#include "matching/two_regular.hpp"

#include <stdexcept>

#include "graph/path_decomposition.hpp"
#include "pram/list_ranking.hpp"

namespace ncpm::matching {

std::optional<std::vector<std::int32_t>> two_regular_perfect_matching(
    std::size_t n_vertices, std::span<const std::int32_t> eu, std::span<const std::int32_t> ev,
    pram::Workspace& ws) {
  const std::size_t m = eu.size();
  if (ev.size() != m) {
    throw std::invalid_argument("two_regular_perfect_matching: edge array size mismatch");
  }
  pram::Executor& ex = ws.exec();
  const bool bad = ex.parallel_any(m, [&](std::size_t e) {
    return eu[e] < 0 || ev[e] < 0 || static_cast<std::size_t>(eu[e]) >= n_vertices ||
           static_cast<std::size_t>(ev[e]) >= n_vertices || eu[e] == ev[e];
  });
  if (bad) {
    throw std::invalid_argument("two_regular_perfect_matching: bad edge");
  }
  const std::size_t nh = 2 * m;

  // Degrees, two-slot incidence and successors for the touched vertices
  // only: the cycle labelling below does its own ranking, so only the
  // links stage runs.
  graph::AliveEdgePaths paths(n_vertices, m, ws);
  paths.rebuild_links(eu, ev, ws);
  const std::span<const std::int32_t> succ = paths.succ();

  // Blocked half-edges are terminal. In a 2-regular graph no traversal may
  // terminate, which stands in for the degree check.
  const bool terminal = ex.parallel_any(
      nh, [&](std::size_t h) { return succ[h] == static_cast<std::int32_t>(h); });
  if (terminal) {
    throw std::invalid_argument("two_regular_perfect_matching: a vertex has degree != 2");
  }

  // Label every *directed* cycle with its minimum half-edge id.
  auto key = ws.take<std::int64_t>(nh);
  ex.parallel_for(nh, [&](std::size_t h) { key[h] = static_cast<std::int64_t>(h); });
  ws.round(nh);
  auto label = ws.take<std::int64_t>(nh);
  pram::window_min_into(succ, key.span(), nh, label.span(), ws);

  // Break each directed cycle at its label and rank: rank[h] = dist(h -> root).
  auto broken = ws.take<std::int32_t>(nh);
  ex.parallel_for(nh, [&](std::size_t h) {
    const bool is_root = label[h] == static_cast<std::int64_t>(h);
    broken[h] = is_root ? static_cast<std::int32_t>(h) : succ[h];
  });
  ws.round(nh);
  auto head = ws.take<std::int32_t>(nh);
  auto rank = ws.take<std::int64_t>(nh);
  auto reaches = ws.take<std::uint8_t>(nh);
  pram::list_rank_into(broken.span(), {head.span(), rank.span(), reaches.span()}, ws);

  // Cycle lengths, published at each root.
  auto len_at = ws.take<std::int64_t>(nh, std::int64_t{0});
  ex.parallel_for(nh, [&](std::size_t h) {
    if (label[h] == static_cast<std::int64_t>(h)) {
      len_at[h] = rank[static_cast<std::size_t>(succ[h])] + 1;
    }
  });
  ws.round(nh);

  const bool odd = ex.parallel_any(nh, [&](std::size_t h) {
    return label[h] == static_cast<std::int64_t>(h) && (len_at[h] & 1) != 0;
  });
  if (odd) return std::nullopt;

  // Of the two traversals of an undirected cycle only the one carrying the
  // smaller label selects edges; it picks those at even distance from the root.
  auto selected = ws.take<std::uint8_t>(m, std::uint8_t{0});
  ex.parallel_for(nh, [&](std::size_t h) {
    const auto mine = label[h];
    const auto other = label[h ^ 1];
    if (mine >= other) return;
    const std::int64_t len = len_at[static_cast<std::size_t>(mine)];
    const std::int64_t d_from_root = (len - rank[h]) % len;
    if ((d_from_root & 1) == 0) selected[h >> 1] = 1;
  });
  ws.round(nh);

  std::vector<std::int32_t> out;
  for (std::size_t e = 0; e < m; ++e) {
    if (selected[e] != 0) out.push_back(static_cast<std::int32_t>(e));
  }
  return out;
}

}  // namespace ncpm::matching
