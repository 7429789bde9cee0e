#include "graph/pseudoforest.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "graph/connected_components.hpp"
#include "graph/transitive_closure.hpp"
#include "linalg/incidence.hpp"

namespace ncpm::graph {

namespace {

void validate(const DirectedPseudoforest& pf, pram::Executor& ex) {
  const std::size_t n = pf.size();
  const bool bad = ex.parallel_any(n, [&](std::size_t v) {
    const auto nx = pf.next[v];
    return nx != pram::kNone && (nx < 0 || static_cast<std::size_t>(nx) >= n);
  });
  if (bad) throw std::invalid_argument("pseudoforest: successor out of range");
}

/// Successor map with sinks turned into self-loops (fixed points).
std::vector<std::int32_t> closed_successors(const DirectedPseudoforest& pf, pram::Executor& ex) {
  std::vector<std::int32_t> f(pf.size());
  ex.parallel_for(pf.size(), [&](std::size_t v) {
    f[v] = pf.is_sink(v) ? static_cast<std::int32_t>(v) : pf.next[v];
  });
  return f;
}

/// Edge list of the underlying undirected multigraph (one edge per non-sink).
void undirected_edges(const DirectedPseudoforest& pf, std::vector<std::int32_t>& eu,
                      std::vector<std::int32_t>& ev, std::vector<std::int32_t>& tail_of_edge) {
  eu.clear();
  ev.clear();
  tail_of_edge.clear();
  for (std::size_t v = 0; v < pf.size(); ++v) {
    if (!pf.is_sink(v)) {
      eu.push_back(static_cast<std::int32_t>(v));
      ev.push_back(pf.next[v]);
      tail_of_edge.push_back(static_cast<std::int32_t>(v));
    }
  }
}

std::vector<std::uint8_t> members_pointer_doubling(const DirectedPseudoforest& pf,
                                                   pram::Workspace& ws) {
  const std::size_t n = pf.size();
  pram::Executor& ex = ws.exec();
  const auto f = closed_successors(pf, ex);
  // For K >= n the image of f^K is exactly {cycle vertices} ∪ {sinks}: any
  // tree vertex is at distance < n from every start, so nothing maps onto it
  // after n steps, while f^K restricted to a cycle is a bijection of the cycle.
  const std::uint64_t k = std::uint64_t{1} << pram::ceil_log2(n == 0 ? 1 : n);
  const auto fk = pram::kth_power(f, k, ws);
  std::vector<std::uint8_t> mark(n, 0);
  ex.parallel_for(n, [&](std::size_t v) {
    // CRCW common-value write, realised with relaxed atomics.
    std::atomic_ref<std::uint8_t>(mark[static_cast<std::size_t>(fk[v])])
        .store(1, std::memory_order_relaxed);
  });
  ws.round(n);
  ex.parallel_for(n, [&](std::size_t v) {
    if (pf.is_sink(v)) mark[v] = 0;
  });
  ws.round(n);
  return mark;
}

std::vector<std::uint8_t> members_transitive_closure(const DirectedPseudoforest& pf,
                                                     pram::Workspace& ws) {
  const std::size_t n = pf.size();
  std::vector<std::int32_t> tail, head;
  for (std::size_t v = 0; v < n; ++v) {
    if (!pf.is_sink(v)) {
      tail.push_back(static_cast<std::int32_t>(v));
      head.push_back(pf.next[v]);
    }
  }
  const auto closure = transitive_closure(adjacency_matrix(n, tail, head), ws);
  return closure.diagonal(ws);  // v on a directed cycle iff v reaches itself
}

/// Shared for the Gf2Rank / EdgeRemovalCC methods: mark endpoints of every
/// edge whose removal keeps the component count unchanged.
template <typename ComponentCount>
std::vector<std::uint8_t> members_by_edge_removal(const DirectedPseudoforest& pf,
                                                  ComponentCount&& cc_of) {
  const std::size_t n = pf.size();
  std::vector<std::int32_t> eu, ev, tail;
  undirected_edges(pf, eu, ev, tail);
  const std::size_t m = eu.size();
  std::vector<std::uint8_t> alive(m, 1);
  const std::size_t base = cc_of(eu, ev, alive);
  std::vector<std::uint8_t> edge_on_cycle(m, 0);
  // The paper runs all m edge-removal tests in parallel; the per-test
  // computation is itself a parallel NC primitive, so we keep the outer loop
  // sequential here to avoid nested thread pools. Work is identical.
  for (std::size_t j = 0; j < m; ++j) {
    alive[j] = 0;
    edge_on_cycle[j] = (cc_of(eu, ev, alive) == base) ? 1 : 0;
    alive[j] = 1;
  }
  std::vector<std::uint8_t> mark(n, 0);
  for (std::size_t j = 0; j < m; ++j) {
    if (edge_on_cycle[j] != 0) {
      mark[static_cast<std::size_t>(eu[j])] = 1;
      mark[static_cast<std::size_t>(ev[j])] = 1;
    }
  }
  return mark;
}

}  // namespace

std::vector<std::uint8_t> cycle_members(const DirectedPseudoforest& pf, CycleMethod method,
                                        pram::Workspace& ws) {
  validate(pf, ws.exec());
  switch (method) {
    case CycleMethod::PointerDoubling:
      return members_pointer_doubling(pf, ws);
    case CycleMethod::TransitiveClosure:
      return members_transitive_closure(pf, ws);
    case CycleMethod::Gf2Rank:
      return members_by_edge_removal(pf, [&](auto& eu, auto& ev, auto& alive) {
        return linalg::component_count_by_rank(pf.size(), eu, ev, alive, ws);
      });
    case CycleMethod::EdgeRemovalCC:
      return members_by_edge_removal(pf, [&](auto& eu, auto& ev, auto& alive) {
        return static_cast<std::size_t>(connected_components(pf.size(), eu, ev, alive, ws).count);
      });
  }
  throw std::invalid_argument("cycle_members: unknown method");
}

std::vector<std::int32_t> weak_components(const DirectedPseudoforest& pf, pram::Workspace& ws) {
  validate(pf, ws.exec());
  std::vector<std::int32_t> eu, ev, tail;
  undirected_edges(pf, eu, ev, tail);
  return connected_components(pf.size(), eu, ev, {}, ws).label;
}

CycleAnalysis analyze_cycles(const DirectedPseudoforest& pf, CycleMethod method,
                             pram::Workspace& ws) {
  const std::size_t n = pf.size();
  pram::Executor& ex = ws.exec();
  CycleAnalysis out;
  out.on_cycle = cycle_members(pf, method, ws);
  out.component = weak_components(pf, ws);
  out.cycle_root.assign(n, pram::kNone);
  out.dist_to_root.assign(n, 0);
  out.cycle_length.assign(n, 0);
  if (n == 0) return out;

  // Root election: windowed min over vertex ids along the cycle. Off-cycle
  // vertices participate harmlessly (their window min is never read).
  const auto f = closed_successors(pf, ex);
  std::vector<std::int64_t> key(n);
  ex.parallel_for(n, [&](std::size_t v) { key[v] = static_cast<std::int64_t>(v); });
  ws.round(n);
  const auto wmin = pram::window_min(f, key, n, ws);
  ex.parallel_for(n, [&](std::size_t v) {
    if (out.on_cycle[v] != 0) out.cycle_root[v] = static_cast<std::int32_t>(wmin[v]);
  });
  ws.round(n);

  // Distance to root: break every cycle at its root (root becomes a terminal)
  // and list-rank. rank[v] is then the distance v -> root along the cycle.
  std::vector<std::int32_t> broken(n);
  ex.parallel_for(n, [&](std::size_t v) {
    const bool is_root = out.on_cycle[v] != 0 && out.cycle_root[v] == static_cast<std::int32_t>(v);
    broken[v] = is_root ? static_cast<std::int32_t>(v) : f[v];
  });
  ws.round(n);
  const auto ranking = pram::list_rank(broken, ws);
  ex.parallel_for(n, [&](std::size_t v) {
    if (out.on_cycle[v] != 0) out.dist_to_root[v] = ranking.rank[v];
  });
  ws.round(n);

  // Cycle length: the root's predecessor on the cycle sits at distance len-1.
  // Equivalently len = dist(next(root)) + 1; publish via the root then fan out.
  std::vector<std::int64_t> len_at_root(n, 0);
  ex.parallel_for(n, [&](std::size_t v) {
    if (out.on_cycle[v] != 0 && out.cycle_root[v] == static_cast<std::int32_t>(v)) {
      const auto succ = static_cast<std::size_t>(f[v]);
      len_at_root[v] = ranking.rank[succ] + 1;
    }
  });
  ws.round(n);
  ex.parallel_for(n, [&](std::size_t v) {
    if (out.on_cycle[v] != 0) {
      out.cycle_length[v] = len_at_root[static_cast<std::size_t>(out.cycle_root[v])];
    }
  });
  ws.round(n);

  // Materialise ordered cycles for sequential consumers (rotations, tests).
  std::vector<std::int32_t> roots;
  for (std::size_t v = 0; v < n; ++v) {
    if (out.on_cycle[v] != 0 && out.cycle_root[v] == static_cast<std::int32_t>(v)) {
      roots.push_back(static_cast<std::int32_t>(v));
    }
  }
  std::sort(roots.begin(), roots.end());
  out.cycles.reserve(roots.size());
  for (const auto r : roots) {
    std::vector<std::int32_t> cyc;
    cyc.reserve(static_cast<std::size_t>(out.cycle_length[static_cast<std::size_t>(r)]));
    std::int32_t v = r;
    do {
      cyc.push_back(v);
      v = f[static_cast<std::size_t>(v)];
    } while (v != r);
    out.cycles.push_back(std::move(cyc));
  }
  return out;
}

}  // namespace ncpm::graph
