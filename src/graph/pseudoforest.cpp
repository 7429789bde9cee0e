#include "graph/pseudoforest.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "graph/connected_components.hpp"

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

/// On-cycle mask by pointer doubling over the closed successor map `f`,
/// where every weak component has at most `bound` vertices.
std::vector<std::uint8_t> members(const DirectedPseudoforest& pf, std::span<const std::int32_t> f,
                                  std::size_t bound, pram::Workspace& ws) {
  const std::size_t n = pf.size();
  pram::Executor& ex = ws.exec();
  // For K >= bound the image of f^K is exactly {cycle vertices} ∪ {sinks}:
  // a tree vertex has fewer than `bound` vertices above it in its
  // component, so nothing maps onto it after `bound` steps, while f^K
  // restricted to a cycle is a bijection of the cycle.
  const std::uint64_t k = std::uint64_t{1} << pram::ceil_log2(bound == 0 ? 1 : bound);
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

/// Weak-component labels: connected components of the underlying undirected
/// multigraph (one edge per non-sink).
std::vector<std::int32_t> weak_components(const DirectedPseudoforest& pf, pram::Workspace& ws) {
  std::vector<std::int32_t> eu, ev;
  for (std::size_t v = 0; v < pf.size(); ++v) {
    if (!pf.is_sink(v)) {
      eu.push_back(static_cast<std::int32_t>(v));
      ev.push_back(pf.next[v]);
    }
  }
  return connected_components(pf.size(), eu, ev, ws).label;
}

/// Vertex count of the largest weak component: a CRCW-add histogram over
/// the labels, then a max-reduce.
std::size_t largest_component(std::span<const std::int32_t> label, pram::Workspace& ws) {
  const std::size_t n = label.size();
  pram::Executor& ex = ws.exec();
  auto size = ws.take<std::uint32_t>(n, 0U);
  ex.parallel_for(n, [&](std::size_t v) {
    std::atomic_ref<std::uint32_t>(size[static_cast<std::size_t>(label[v])])
        .fetch_add(1, std::memory_order_relaxed);
  });
  ws.round(n);
  const std::uint32_t largest = ex.parallel_reduce(
      n, 0U, [&](std::size_t v) { return size[v]; },
      [](std::uint32_t a, std::uint32_t b) { return a > b ? a : b; });
  ws.round(n);
  return largest;
}

}  // namespace

std::vector<std::uint8_t> cycle_members(const DirectedPseudoforest& pf, pram::Workspace& ws) {
  validate(pf, ws.exec());
  return members(pf, closed_successors(pf, ws.exec()), pf.size(), ws);
}

CycleAnalysis analyze_cycles(const DirectedPseudoforest& pf, pram::Workspace& ws) {
  const std::size_t n = pf.size();
  pram::Executor& ex = ws.exec();
  validate(pf, ex);
  const auto f = closed_successors(pf, ex);
  CycleAnalysis out;
  // Every doubling below only has to reach across one weak component.
  out.component = weak_components(pf, ws);
  const std::size_t bound = largest_component(out.component, ws);
  out.on_cycle = members(pf, f, bound, ws);
  out.cycle_root.assign(n, pram::kNone);
  out.dist_to_root.assign(n, 0);
  out.cycle_length.assign(n, 0);
  if (n == 0) return out;

  // Root election: windowed min over vertex ids along the cycle. Off-cycle
  // vertices participate harmlessly (their window min is never read).
  std::vector<std::int64_t> key(n);
  ex.parallel_for(n, [&](std::size_t v) { key[v] = static_cast<std::int64_t>(v); });
  ws.round(n);
  const auto wmin = pram::window_min(f, key, bound, ws);
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
