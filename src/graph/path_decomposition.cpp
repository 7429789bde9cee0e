#include "graph/path_decomposition.hpp"

#include <atomic>
#include <stdexcept>

#include "pram/list_ranking.hpp"

namespace ncpm::graph {

AliveEdgePaths::AliveEdgePaths(std::size_t n_vertices, std::size_t max_edges,
                               pram::Workspace& ws)
    : deg_(ws.take<std::int32_t>(n_vertices)),
      inc_(ws.take<std::int32_t>(2 * n_vertices)),
      succ_(ws.take<std::int32_t>(2 * max_edges)),
      head_(ws.take<std::int32_t>(2 * max_edges)),
      rank_(ws.take<std::int64_t>(2 * max_edges)),
      reaches_(ws.take<std::uint8_t>(2 * max_edges)) {}

void AliveEdgePaths::rebuild_links(std::span<const std::int32_t> eu,
                                   std::span<const std::int32_t> ev, pram::Workspace& ws) {
  const std::size_t m = eu.size();
  if (ev.size() != m || 2 * m > succ_.size()) {
    throw std::invalid_argument("AliveEdgePaths: edge array size mismatch");
  }
  m_ = m;
  eu_ = eu;
  ev_ = ev;
  std::int32_t* const deg = deg_.data();
  std::int32_t* const inc = inc_.data();
  pram::Executor& ex = ws.exec();

  // Reset exactly the touched vertices (benign CRCW common writes), then
  // count degrees and register the first two incident edges per vertex —
  // all the degree-2 continuation ever needs.
  ex.parallel_for(m, [&](std::size_t e) {
    // CRCW common-value writes (endpoints shared between edges): relaxed
    // atomics, as everywhere else in the library.
    std::atomic_ref<std::int32_t>(deg[static_cast<std::size_t>(eu[e])])
        .store(0, std::memory_order_relaxed);
    std::atomic_ref<std::int32_t>(deg[static_cast<std::size_t>(ev[e])])
        .store(0, std::memory_order_relaxed);
  });
  ws.round(m);
  ex.parallel_for(m, [&](std::size_t e) {
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
