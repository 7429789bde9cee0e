#include "graph/path_decomposition.hpp"

#include <atomic>
#include <stdexcept>

#include "pram/scan.hpp"

namespace ncpm::graph {

HalfEdgeStructure::HalfEdgeStructure(std::size_t n_vertices, std::span<const std::int32_t> eu,
                                     std::span<const std::int32_t> ev,
                                     std::span<const std::uint8_t> edge_alive,
                                     pram::Workspace& ws) {
  rebuild(n_vertices, eu, ev, edge_alive, ws);
}

void HalfEdgeStructure::rebuild(std::size_t n_vertices, std::span<const std::int32_t> eu,
                                std::span<const std::int32_t> ev,
                                std::span<const std::uint8_t> edge_alive, pram::Workspace& ws) {
  n_ = n_vertices;
  eu_.assign(eu.begin(), eu.end());
  ev_.assign(ev.begin(), ev.end());
  alive_.assign(edge_alive.begin(), edge_alive.end());
  const std::size_t m = eu_.size();
  if (ev_.size() != m || alive_.size() != m) {
    throw std::invalid_argument("HalfEdgeStructure: edge array size mismatch");
  }
  pram::Executor& ex = ws.exec();
  const bool bad = ex.parallel_any(m, [&](std::size_t e) {
    if (alive_[e] == 0) return false;
    return eu_[e] < 0 || ev_[e] < 0 || static_cast<std::size_t>(eu_[e]) >= n_ ||
           static_cast<std::size_t>(ev_[e]) >= n_ || eu_[e] == ev_[e];
  });
  if (bad) throw std::invalid_argument("HalfEdgeStructure: bad alive edge (range or self-loop)");

  // Alive degrees via CRCW-sum (atomic adds), then CSR offsets via scan.
  degree_.assign(n_, 0);
  ex.parallel_for(m, [&](std::size_t e) {
    if (alive_[e] == 0) return;
    std::atomic_ref<std::int64_t>(degree_[static_cast<std::size_t>(eu_[e])])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref<std::int64_t>(degree_[static_cast<std::size_t>(ev_[e])])
        .fetch_add(1, std::memory_order_relaxed);
  });
  ws.round(m);

  auto off64 = ws.take<std::int64_t>(n_);
  const std::int64_t total =
      pram::exclusive_scan<std::int64_t>(degree_, off64.span(), ws);
  offset_.resize(n_ + 1);
  ex.parallel_for(n_, [&](std::size_t v) { offset_[v] = static_cast<std::size_t>(off64[v]); });
  offset_[n_] = static_cast<std::size_t>(total);
  ws.round(n_);

  incident_.resize(static_cast<std::size_t>(total));
  auto cursor = ws.take<std::int64_t>(n_);
  ex.parallel_for(n_, [&](std::size_t v) { cursor[v] = off64[v]; });
  ws.round(n_);
  ex.parallel_for(m, [&](std::size_t e) {
    if (alive_[e] == 0) return;
    const auto pu = std::atomic_ref<std::int64_t>(cursor[static_cast<std::size_t>(eu_[e])])
                        .fetch_add(1, std::memory_order_relaxed);
    incident_[static_cast<std::size_t>(pu)] = static_cast<std::int32_t>(e);
    const auto pv = std::atomic_ref<std::int64_t>(cursor[static_cast<std::size_t>(ev_[e])])
                        .fetch_add(1, std::memory_order_relaxed);
    incident_[static_cast<std::size_t>(pv)] = static_cast<std::int32_t>(e);
  });
  ws.round(m);

  // Successors: continue through degree-2 targets, stop elsewhere.
  succ_.resize(2 * m);
  ex.parallel_for(2 * m, [&](std::size_t hs) {
    const auto h = static_cast<std::int32_t>(hs);
    const auto e = static_cast<std::size_t>(h >> 1);
    if (alive_[e] == 0) {
      succ_[hs] = h;
      return;
    }
    const std::int32_t t = target(h);
    if (degree(t) != 2) {
      succ_[hs] = h;
      return;
    }
    const auto inc = incident(t);
    const std::int32_t mine = static_cast<std::int32_t>(e);
    const std::int32_t other = inc[0] == mine ? inc[1] : inc[0];
    succ_[hs] = out_of(t, other);
  });
  ws.round(2 * m);

  ranking_.head.resize(2 * m);
  ranking_.rank.resize(2 * m);
  ranking_.reaches_terminal.resize(2 * m);
  pram::list_rank_into(succ_, {ranking_.head, ranking_.rank, ranking_.reaches_terminal}, ws);
}

AliveEdgePaths::AliveEdgePaths(std::size_t n_vertices, std::size_t max_edges,
                               pram::Workspace& ws)
    : deg_(ws.take<std::int32_t>(n_vertices)),
      inc_(ws.take<std::int32_t>(2 * n_vertices)),
      succ_(ws.take<std::int32_t>(2 * max_edges)),
      head_(ws.take<std::int32_t>(2 * max_edges)),
      rank_(ws.take<std::int64_t>(2 * max_edges)),
      reaches_(ws.take<std::uint8_t>(2 * max_edges)) {}

void AliveEdgePaths::rebuild_links(std::span<const std::int32_t> eu,
                                   std::span<const std::int32_t> ev,
                                   std::span<const std::uint8_t> edge_alive,
                                   pram::Workspace& ws) {
  const std::size_t m = eu.size();
  if (ev.size() != m || 2 * m > succ_.size() ||
      (!edge_alive.empty() && edge_alive.size() != m)) {
    throw std::invalid_argument("AliveEdgePaths: edge array size mismatch");
  }
  m_ = m;
  eu_ = eu;
  ev_ = ev;
  const auto alive = [&](std::size_t e) { return edge_alive.empty() || edge_alive[e] != 0; };
  std::int32_t* const deg = deg_.data();
  std::int32_t* const inc = inc_.data();
  pram::Executor& ex = ws.exec();

  // Reset exactly the touched vertices (benign CRCW common writes), then
  // count degrees and register the first two incident edges per vertex —
  // all the degree-2 continuation ever needs.
  ex.parallel_for(m, [&](std::size_t e) {
    if (!alive(e)) return;
    // CRCW common-value writes (endpoints shared between edges): relaxed
    // atomics, as everywhere else in the library.
    std::atomic_ref<std::int32_t>(deg[static_cast<std::size_t>(eu[e])])
        .store(0, std::memory_order_relaxed);
    std::atomic_ref<std::int32_t>(deg[static_cast<std::size_t>(ev[e])])
        .store(0, std::memory_order_relaxed);
  });
  ws.round(m);
  ex.parallel_for(m, [&](std::size_t e) {
    if (!alive(e)) return;
    for (const std::int32_t v : {eu[e], ev[e]}) {
      const std::int32_t slot = std::atomic_ref<std::int32_t>(deg[static_cast<std::size_t>(v)])
                                    .fetch_add(1, std::memory_order_relaxed);
      if (slot < 2) inc[2 * static_cast<std::size_t>(v) + slot] = static_cast<std::int32_t>(e);
    }
  });
  ws.round(m);

  std::int32_t* const succ = succ_.data();
  ex.parallel_for(2 * m, [&](std::size_t hs) {
    const auto e = hs >> 1;
    if (!alive(e)) {
      succ[hs] = static_cast<std::int32_t>(hs);
      return;
    }
    const std::int32_t t = (hs & 1) != 0 ? eu[e] : ev[e];
    if (deg[static_cast<std::size_t>(t)] != 2) {
      succ[hs] = static_cast<std::int32_t>(hs);
      return;
    }
    const auto mine = static_cast<std::int32_t>(e);
    const std::size_t ti = static_cast<std::size_t>(t);
    const std::int32_t other = inc[2 * ti] == mine ? inc[2 * ti + 1] : inc[2 * ti];
    succ[hs] = eu[static_cast<std::size_t>(other)] == t ? 2 * other : 2 * other + 1;
  });
  ws.round(2 * m);
}

void AliveEdgePaths::rank(pram::Workspace& ws) {
  pram::list_rank_into(succ_.span().first(2 * m_),
                       {head_.span().first(2 * m_), rank_.span().first(2 * m_),
                        reaches_.span().first(2 * m_)},
                       ws);
}

}  // namespace ncpm::graph
