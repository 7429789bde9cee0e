#include "graph/connected_components.hpp"

#include <atomic>
#include <stdexcept>

#include "pram/crcw.hpp"
#include "pram/executor.hpp"

namespace ncpm::graph {

namespace {

/// Grain for the very cheap per-vertex loops (a load, a compare, a store).
constexpr std::size_t kGrain = 2048;

}  // namespace

ComponentLabels connected_components(std::size_t n, std::span<const std::int32_t> eu,
                                     std::span<const std::int32_t> ev,
                                     std::span<const std::uint8_t> edge_alive,
                                     pram::NcCounters* counters, pram::Executor& ex) {
  pram::Workspace ws(ex);
  return connected_components(n, eu, ev, edge_alive, ws, counters);
}

ComponentLabels connected_components(std::size_t n, std::span<const std::int32_t> eu,
                                     std::span<const std::int32_t> ev,
                                     std::span<const std::uint8_t> edge_alive,
                                     pram::Workspace& ws, pram::NcCounters* counters) {
  if (eu.size() != ev.size()) {
    throw std::invalid_argument("connected_components: eu/ev size mismatch");
  }
  if (!edge_alive.empty() && edge_alive.size() != eu.size()) {
    throw std::invalid_argument("connected_components: edge_alive size mismatch");
  }
  const std::size_t m = eu.size();
  pram::Executor& ex = ws.exec();
  ComponentLabels out;
  out.label.resize(n);
  ex.parallel_for_grain(
      n, kGrain, [&](std::size_t v) { out.label[v] = static_cast<std::int32_t>(v); });
  pram::add_round(counters, n);

  auto scratch = ws.take<std::int32_t>(n);
  std::span<std::int32_t> parent = out.label;
  std::span<std::int32_t> next_parent = scratch.span();
  std::uint8_t changed = 1;
  while (changed != 0) {
    changed = 0;
    // Hook: pull each endpoint's current root toward the smaller root.
    // Reads are relaxed atomic loads: other lanes CAS the same slots
    // concurrently (CRCW min), and any torn-in-time value only delays
    // convergence by a round, never corrupts it.
    ex.parallel_for(m, [&](std::size_t j) {
      if (!edge_alive.empty() && edge_alive[j] == 0) return;
      const auto pu = std::atomic_ref<std::int32_t>(parent[static_cast<std::size_t>(eu[j])])
                          .load(std::memory_order_relaxed);
      const auto pv = std::atomic_ref<std::int32_t>(parent[static_cast<std::size_t>(ev[j])])
                          .load(std::memory_order_relaxed);
      if (pu == pv) return;
      const std::int32_t lo = pu < pv ? pu : pv;
      const std::int32_t hi = pu < pv ? pv : pu;
      pram::crcw_min(parent[static_cast<std::size_t>(hi)], lo);
      std::atomic_ref<std::uint8_t>(changed).store(1, std::memory_order_relaxed);
    });
    pram::add_round(counters, m);

    // Shortcut: full pointer jumping until every vertex points at a root.
    bool shortcutting = true;
    while (shortcutting) {
      ex.parallel_for_grain(n, kGrain, [&](std::size_t v) {
        next_parent[v] = parent[static_cast<std::size_t>(parent[v])];
      });
      shortcutting =
          ex.parallel_any(n, [&](std::size_t v) { return next_parent[v] != parent[v]; });
      std::swap(parent, next_parent);
      pram::add_round(counters, n);
    }
    ++out.hook_rounds;
  }

  if (parent.data() != out.label.data()) {
    ex.parallel_for_grain(n, kGrain, [&](std::size_t v) { out.label[v] = parent[v]; });
    pram::add_round(counters, n);
  }
  out.count = static_cast<std::int32_t>(ex.parallel_count(
      n, [&](std::size_t v) { return parent[v] == static_cast<std::int32_t>(v); }));
  return out;
}

}  // namespace ncpm::graph
