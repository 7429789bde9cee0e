#include "graph/connected_components.hpp"

#include <atomic>
#include <stdexcept>

#include "pram/crcw.hpp"

namespace ncpm::graph {

ComponentLabels connected_components(std::size_t n, std::span<const std::int32_t> eu,
                                     std::span<const std::int32_t> ev, pram::Workspace& ws) {
  if (eu.size() != ev.size()) {
    throw std::invalid_argument("connected_components: eu/ev size mismatch");
  }
  const std::size_t m = eu.size();
  pram::Executor& ex = ws.exec();
  ComponentLabels out;
  out.label.resize(n);
  auto scratch = ws.take<std::int32_t>(n);
  std::span<std::int32_t> parent = out.label;
  std::span<std::int32_t> next_parent = scratch.span();
  // Both label arrays start as the identity, and every shortcut phase ends
  // with them equal (its last jump changed nothing). So a hook round can
  // read `parent` as the previous round's snapshot while its CRCW-min
  // writes land in `next_parent`.
  ex.parallel_for(n, [&](std::size_t v) {
    parent[v] = static_cast<std::int32_t>(v);
    next_parent[v] = static_cast<std::int32_t>(v);
  });
  ws.round(n);

  std::uint8_t changed = 1;
  while (changed != 0) {
    changed = 0;
    // Hook: pull each endpoint's root toward the smaller root.
    ex.parallel_for(m, [&](std::size_t j) {
      const std::int32_t pu = parent[static_cast<std::size_t>(eu[j])];
      const std::int32_t pv = parent[static_cast<std::size_t>(ev[j])];
      if (pu == pv) return;
      const std::int32_t lo = pu < pv ? pu : pv;
      const std::int32_t hi = pu < pv ? pv : pu;
      pram::crcw_min(next_parent[static_cast<std::size_t>(hi)], lo);
      std::atomic_ref<std::uint8_t>(changed).store(1, std::memory_order_relaxed);
    });
    std::swap(parent, next_parent);
    ws.round(m);

    // Shortcut: full pointer jumping until every vertex points at a root.
    bool shortcutting = true;
    while (shortcutting) {
      ex.parallel_for(n, [&](std::size_t v) {
        next_parent[v] = parent[static_cast<std::size_t>(parent[v])];
      });
      shortcutting =
          ex.parallel_any(n, [&](std::size_t v) { return next_parent[v] != parent[v]; });
      std::swap(parent, next_parent);
      ws.round(n);
    }
    ++out.hook_rounds;
  }

  // Both arrays hold the final labels, so out.label is already complete.
  out.count = static_cast<std::int32_t>(ex.parallel_count(
      n, [&](std::size_t v) { return parent[v] == static_cast<std::int32_t>(v); }));
  return out;
}

}  // namespace ncpm::graph
