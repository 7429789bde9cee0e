#include "matching/euler_split.hpp"

#include <atomic>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "pram/list_ranking.hpp"
#include "pram/scan.hpp"
#include "pram/workspace.hpp"

namespace ncpm::matching {

namespace {

/// Grain for the very cheap per-half-edge loops: a few instructions each, so
/// let every thread chew contiguous blocks instead of paying the scheduler
/// per element.
constexpr std::size_t kGrain = 2048;

/// One Euler split: among the alive edges (all vertices d-regular, d even),
/// keep exactly d/2 per vertex. Vertices live in a unified id space
/// (left l -> l, right r -> n_left + r). All scratch is leased from `ws`,
/// so the log2(d) cascade reuses one warm set of buffers.
void euler_halve(const graph::BipartiteGraph& g, std::span<std::uint8_t> alive,
                 pram::Workspace& ws) {
  obs::PhaseScope phase(ws.profiler(), obs::Phase::kEulerSplit);
  const std::size_t m = g.num_edges();
  const std::size_t n =
      static_cast<std::size_t>(g.n_left()) + static_cast<std::size_t>(g.n_right());
  const std::size_t nh = 2 * m;
  pram::Executor& ex = ws.exec();

  // Alive incidence lists per unified vertex.
  auto degree = ws.take<std::int64_t>(n, std::int64_t{0});
  ex.parallel_for(m, [&](std::size_t e) {
    if (alive[e] == 0) return;
    const auto u = static_cast<std::size_t>(g.edge_left(e));
    const auto v =
        static_cast<std::size_t>(g.n_left()) + static_cast<std::size_t>(g.edge_right(e));
    std::atomic_ref<std::int64_t>(degree[u]).fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<std::int64_t>(degree[v]).fetch_add(1, std::memory_order_relaxed);
  });
  ws.round(m);

  auto offset = ws.take<std::int64_t>(n);
  const std::int64_t total =
      pram::exclusive_scan<std::int64_t>(degree.span(), offset.span(), ws);
  auto incident = ws.take<std::int32_t>(static_cast<std::size_t>(total));
  auto slot_of_half = ws.take<std::int64_t>(nh, std::int64_t{-1});
  auto cursor = ws.take<std::int64_t>(n);
  ex.parallel_for_grain(n, kGrain, [&](std::size_t v) { cursor[v] = offset[v]; });
  ws.round(n);
  ex.parallel_for(m, [&](std::size_t e) {
    if (alive[e] == 0) return;
    const auto u = static_cast<std::size_t>(g.edge_left(e));
    const auto v =
        static_cast<std::size_t>(g.n_left()) + static_cast<std::size_t>(g.edge_right(e));
    // Half-edge 2e enters v (travels left -> right); 2e+1 enters u.
    const auto pv =
        std::atomic_ref<std::int64_t>(cursor[v]).fetch_add(1, std::memory_order_relaxed);
    incident[static_cast<std::size_t>(pv)] = static_cast<std::int32_t>(e);
    slot_of_half[2 * e] = pv;
    const auto pu =
        std::atomic_ref<std::int64_t>(cursor[u]).fetch_add(1, std::memory_order_relaxed);
    incident[static_cast<std::size_t>(pu)] = static_cast<std::int32_t>(e);
    slot_of_half[2 * e + 1] = pu;
  });
  ws.round(m);

  // Pair consecutive incident edges at every vertex: entering via the edge in
  // slot 2i leaves via slot 2i+1 and vice versa. This makes `succ` a
  // permutation of alive half-edges whose orbits are closed trails.
  auto succ = ws.take<std::int32_t>(nh);
  ex.parallel_for_grain(nh, kGrain, [&](std::size_t h) {
    if (alive[h >> 1] == 0) {
      succ[h] = static_cast<std::int32_t>(h);
      return;
    }
    const std::int64_t slot = slot_of_half[h];
    const std::int64_t buddy_slot = slot ^ 1;
    const std::int32_t buddy_edge = incident[static_cast<std::size_t>(buddy_slot)];
    // Leaving along buddy_edge from the vertex h entered: the new half-edge
    // "enters" buddy_edge's other endpoint.
    const bool entered_right = (h & 1U) == 0;  // h entered a right vertex
    // If we sit at a right vertex, we leave toward buddy's left endpoint,
    // i.e. the new half-edge is the one entering the left side: 2*buddy+1.
    succ[h] = entered_right ? 2 * buddy_edge + 1 : 2 * buddy_edge;
  });
  ws.round(nh);

  // Label each directed trail, break at the label, rank, and keep the even
  // parity class. Trails in bipartite graphs have even length.
  auto key = ws.take<std::int64_t>(nh);
  ex.parallel_for_grain(nh, kGrain, [&](std::size_t h) {
    key[h] = alive[h >> 1] != 0 ? static_cast<std::int64_t>(h) : static_cast<std::int64_t>(nh);
  });
  ws.round(nh);
  auto label = ws.take<std::int64_t>(nh);
  pram::window_min_into(succ.span(), key.span(), nh, label.span(), ws);

  auto broken = ws.take<std::int32_t>(nh);
  ex.parallel_for_grain(nh, kGrain, [&](std::size_t h) {
    broken[h] = label[h] == static_cast<std::int64_t>(h) ? static_cast<std::int32_t>(h) : succ[h];
  });
  ws.round(nh);
  auto head = ws.take<std::int32_t>(nh);
  auto rank = ws.take<std::int64_t>(nh);
  auto reaches = ws.take<std::uint8_t>(nh);
  pram::list_rank_into(broken.span(), {head.span(), rank.span(), reaches.span()}, ws);

  auto len_at = ws.take<std::int64_t>(nh, std::int64_t{0});
  ex.parallel_for_grain(nh, kGrain, [&](std::size_t h) {
    if (alive[h >> 1] != 0 && label[h] == static_cast<std::int64_t>(h)) {
      len_at[h] = rank[static_cast<std::size_t>(succ[h])] + 1;
    }
  });
  ws.round(nh);

  // Keep an edge iff the traversal carrying the smaller label sees it at even
  // distance from the root. Deciding from one traversal only keeps the
  // per-vertex counts exact (paired edges sit at adjacent trail positions).
  auto keep = ws.take<std::uint8_t>(m, std::uint8_t{0});
  ex.parallel_for_grain(nh, kGrain, [&](std::size_t h) {
    if (alive[h >> 1] == 0) return;
    const auto mine = label[h];
    const auto other = label[h ^ 1];
    if (mine >= other) return;
    const std::int64_t len = len_at[static_cast<std::size_t>(mine)];
    const std::int64_t d = (len - rank[h]) % len;
    if ((d & 1) == 0) keep[h >> 1] = 1;
  });
  ws.round(nh);

  ex.parallel_for_grain(m, kGrain, [&](std::size_t e) {
    if (alive[e] != 0) alive[e] = keep[e];
  });
  ws.round(m);
}

}  // namespace

Matching regular_bipartite_perfect_matching(const graph::BipartiteGraph& g, pram::Workspace& ws) {
  if (g.n_left() != g.n_right()) {
    throw std::invalid_argument("regular_bipartite_perfect_matching: side sizes differ");
  }
  if (g.n_left() == 0) return Matching(0, 0);
  const std::size_t d = g.degree_left(0);
  for (std::int32_t l = 0; l < g.n_left(); ++l) {
    if (g.degree_left(l) != d) {
      throw std::invalid_argument("regular_bipartite_perfect_matching: not regular");
    }
  }
  for (std::int32_t r = 0; r < g.n_right(); ++r) {
    if (g.degree_right(r) != d) {
      throw std::invalid_argument("regular_bipartite_perfect_matching: not regular");
    }
  }
  if (d == 0 || (d & (d - 1)) != 0) {
    throw std::invalid_argument("regular_bipartite_perfect_matching: degree must be a power of two");
  }

  auto alive = ws.take<std::uint8_t>(g.num_edges(), std::uint8_t{1});
  for (std::size_t cur = d; cur > 1; cur /= 2) {
    euler_halve(g, alive.span(), ws);
  }

  Matching m(g.n_left(), g.n_right());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    if (alive[e] != 0) m.match(g.edge_left(e), g.edge_right(e));
  }
  return m;
}

}  // namespace ncpm::matching
