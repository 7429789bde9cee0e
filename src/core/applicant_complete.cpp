#include "core/applicant_complete.hpp"

#include <atomic>
#include <stdexcept>
#include <utility>

#include "graph/path_decomposition.hpp"
#include "matching/two_regular.hpp"
#include "obs/profiler.hpp"
#include "pram/scan.hpp"

namespace ncpm::core {

ApplicantCompleteResult applicant_complete_matching(const Instance& inst, const ReducedGraph& rg,
                                                    pram::Workspace& ws) {
  const auto n_a = static_cast<std::size_t>(inst.num_applicants());
  const auto n_vertices = n_a + static_cast<std::size_t>(inst.total_posts());

  pram::Executor& ex = ws.exec();
  ApplicantCompleteResult result;
  result.post_of.assign(n_a, kNone);
  if (n_a == 0) {
    result.exists = true;
    return result;
  }

  // Original edge ids: 2a = (a, f(a)), 2a+1 = (a, s(a)). The engine works
  // on a compacted array of the alive edges; `edge_id` maps a compact slot
  // back to the original id (whose applicant is edge_id >> 1).
  const std::size_t m = 2 * n_a;
  auto edge_id_a = ws.take<std::int32_t>(m);
  auto eu_a = ws.take<std::int32_t>(m);
  auto ev_a = ws.take<std::int32_t>(m);
  auto edge_id_b = ws.take<std::int32_t>(m);
  auto eu_b = ws.take<std::int32_t>(m);
  auto ev_b = ws.take<std::int32_t>(m);
  auto keep = ws.take<std::uint32_t>(m);
  auto kpos = ws.take<std::uint32_t>(m);
  // Vertex state. `vertex_alive` starts all-1: applicants always carry two
  // edges, and posts outside G' are filtered by the degree >= 1 test below.
  auto vertex_alive = ws.take<std::uint8_t>(n_vertices, std::uint8_t{1});
  auto matched_vertex = ws.take<std::uint8_t>(n_vertices, std::uint8_t{0});
  graph::AliveEdgePaths paths(n_vertices, m, ws);

  std::span<std::int32_t> edge_id = edge_id_a.span();
  std::span<std::int32_t> eu = eu_a.span();
  std::span<std::int32_t> ev = ev_a.span();
  std::span<std::int32_t> edge_id_next = edge_id_b.span();
  std::span<std::int32_t> eu_next = eu_b.span();
  std::span<std::int32_t> ev_next = ev_b.span();

  ex.parallel_for(n_a, [&](std::size_t a) {
    const auto av = static_cast<std::int32_t>(a);
    const auto pv = [&](std::int32_t p) { return static_cast<std::int32_t>(n_a) + p; };
    edge_id[2 * a] = static_cast<std::int32_t>(2 * a);
    eu[2 * a] = av;
    ev[2 * a] = pv(rg.f_post[a]);
    edge_id[2 * a + 1] = static_cast<std::int32_t>(2 * a + 1);
    eu[2 * a + 1] = av;
    ev[2 * a + 1] = pv(rg.s_post[a]);
  });
  ws.round(n_a);

  std::size_t ma = m;  // surviving (compacted) edges
  while (true) {
    const std::uint64_t allocs_at = ws.heap_allocations();
    // Degrees, two-slot incidence, successors and ranking over the
    // compacted edges — Θ(ma log ma) work, nothing proportional to m or n.
    paths.rebuild(eu.first(ma), ev.first(ma), ws);

    // Any alive post of degree 1? Every such post is the `ev` endpoint of
    // some surviving edge, so scanning the compacted edges is a complete
    // check — no per-post frontier re-scan.
    const bool have_degree_one = ex.parallel_any(
        ma, [&](std::size_t e) { return paths.degree(ev[e]) == 1; });
    if (!have_degree_one) break;
    ++result.while_rounds;

    // Per half-edge matching rule. For a half-edge h on the traversal that
    // starts at the degree-1 end v0 of its maximal path, the edge of h lies
    // at distance rank[h0] - rank[h] from v0, where h0 is the start
    // half-edge of the traversal (recovered as rev(head[rev(h)])). Edges at
    // even distance are matched. When both path ends have degree 1, only the
    // traversal from the smaller-id end acts.
    const std::size_t nh = 2 * ma;
    const auto head = paths.head();
    const auto rank = paths.rank();
    const auto reaches = paths.reaches_terminal();
    ex.parallel_for(nh, [&](std::size_t hs) {
      const auto h = static_cast<std::int32_t>(hs);
      const auto e = static_cast<std::size_t>(h >> 1);
      if (reaches[hs] == 0) return;  // on an all-degree-2 cycle
      const std::int32_t hr = graph::AliveEdgePaths::rev(h);
      if (reaches[static_cast<std::size_t>(hr)] == 0) return;
      const std::int32_t h0 =
          graph::AliveEdgePaths::rev(head[static_cast<std::size_t>(hr)]);
      const std::int32_t v0 = paths.source(h0);
      if (paths.degree(v0) != 1) return;
      const std::int32_t vend = paths.target(head[hs]);
      if (paths.degree(vend) == 1 && vend < v0) return;  // the other traversal acts
      const std::int64_t d = rank[static_cast<std::size_t>(h0)] - rank[hs];
      if ((d & 1) != 0) return;
      // Matched edge: record and mark both endpoints dead. Each edge is
      // selected by at most one traversal, so the writes are exclusive.
      const auto a = static_cast<std::size_t>(edge_id[e] >> 1);
      result.post_of[a] = ev[e] - static_cast<std::int32_t>(n_a);
      matched_vertex[static_cast<std::size_t>(eu[e])] = 1;
      matched_vertex[static_cast<std::size_t>(ev[e])] = 1;
    });
    ws.round(nh);

    // Delete matched vertices. Newly matched vertices are endpoints of
    // surviving edges, so the edge array is the frontier to scan.
    std::uint8_t progressed = 0;
    ex.parallel_for(ma, [&](std::size_t e) {
      for (const std::int32_t v : {eu[e], ev[e]}) {
        const auto vi = static_cast<std::size_t>(v);
        if (matched_vertex[vi] != 0 &&
            std::atomic_ref<std::uint8_t>(vertex_alive[vi])
                    .exchange(0, std::memory_order_relaxed) != 0) {
          std::atomic_ref<std::uint8_t>(progressed).store(1, std::memory_order_relaxed);
        }
      }
    });
    ws.round(ma);
    if (progressed == 0) {
      throw std::logic_error(
          "applicant_complete_matching: degree-1 post without progress (internal invariant)");
    }

    // Compact the survivors (both endpoints still alive) for the next round.
    {
      obs::PhaseScope phase(ws.profiler(), obs::Phase::kCompaction);
      ex.parallel_for(ma, [&](std::size_t e) {
        keep[e] = (vertex_alive[static_cast<std::size_t>(eu[e])] != 0 &&
                   vertex_alive[static_cast<std::size_t>(ev[e])] != 0)
                      ? 1u
                      : 0u;
      });
      ws.round(ma);
      const std::uint32_t ma_next = pram::exclusive_scan<std::uint32_t>(
          keep.span().first(ma), kpos.span().first(ma), ws);
      ex.parallel_for(ma, [&](std::size_t e) {
        if (keep[e] == 0) return;
        const auto p = static_cast<std::size_t>(kpos[e]);
        edge_id_next[p] = edge_id[e];
        eu_next[p] = eu[e];
        ev_next[p] = ev[e];
      });
      ws.round(ma);
      std::swap(edge_id, edge_id_next);
      std::swap(eu, eu_next);
      std::swap(ev, ev_next);
      ma = static_cast<std::size_t>(ma_next);
    }

    const std::uint64_t delta = ws.heap_allocations() - allocs_at;
    if (result.while_rounds == 1) {
      result.workspace_allocs_first_round += delta;
    } else {
      result.workspace_allocs_later_rounds += delta;
    }
  }

  // Count survivors. Posts of degree 0 are dropped here, as in the paper.
  // The in-loop degrees are only valid at endpoints of surviving edges, so
  // recompute them cleanly (one full pass, outside the round loop).
  auto final_deg = ws.take<std::int32_t>(n_vertices, std::int32_t{0});
  ex.parallel_for(ma, [&](std::size_t e) {
    std::atomic_ref<std::int32_t>(final_deg[static_cast<std::size_t>(eu[e])])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<std::int32_t>(final_deg[static_cast<std::size_t>(ev[e])])
        .fetch_add(1, std::memory_order_relaxed);
  });
  ws.round(ma);
  const std::size_t applicants_left =
      ex.parallel_count(n_a, [&](std::size_t a) { return vertex_alive[a] != 0; });
  const std::size_t posts_left = ex.parallel_count(n_vertices - n_a, [&](std::size_t i) {
    const auto v = n_a + i;
    return vertex_alive[v] != 0 && final_deg[v] >= 1;
  });
  if (posts_left < applicants_left) {
    result.exists = false;
    return result;
  }

  // Residual graph is 2-regular: disjoint even cycles (bipartite).
  if (applicants_left > 0) {
    obs::PhaseScope phase(ws.profiler(), obs::Phase::kTwoRegular);
    const auto cycle_edges = matching::two_regular_perfect_matching(
        n_vertices, eu.first(ma), ev.first(ma), ws);
    if (!cycle_edges.has_value()) {
      throw std::logic_error("applicant_complete_matching: odd cycle in bipartite residual");
    }
    for (const auto e : *cycle_edges) {
      const auto es = static_cast<std::size_t>(e);
      const auto a = static_cast<std::size_t>(edge_id[es] >> 1);
      result.post_of[a] = ev[es] - static_cast<std::int32_t>(n_a);
    }
  }

  // Applicant-complete iff every applicant got a post.
  const bool missing =
      ex.parallel_any(n_a, [&](std::size_t a) { return result.post_of[a] == kNone; });
  if (missing) {
    throw std::logic_error("applicant_complete_matching: unmatched applicant after cycle phase");
  }
  result.exists = true;
  return result;
}

}  // namespace ncpm::core
