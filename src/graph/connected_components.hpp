#pragma once
// Parallel connected components (the paper's Theorem 8 stand-in).
//
// The paper cites Cole–Vishkin for O(log n)-time CRCW connected components;
// we implement the classic Shiloach–Vishkin scheme — per round, hook roots
// toward smaller labels across edges (CRCW "min" writes, realised with
// std::atomic_ref fetch-min loops) and then fully shortcut by pointer
// jumping. Every round reads only the previous round's labels (synchronous
// PRAM semantics), so the labels, `hook_rounds` and the counted rounds are
// all independent of the executor width. Labels converge to the minimum
// vertex id of each component, which the rest of the library uses as the
// canonical component name.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pram/workspace.hpp"

namespace ncpm::graph {

struct ComponentLabels {
  std::vector<std::int32_t> label;  ///< label[v] = min vertex id in v's component
  std::int32_t count = 0;           ///< number of components (isolated vertices included)
  std::uint64_t hook_rounds = 0;    ///< outer hook+shortcut iterations executed
};

/// Connected components of the undirected (multi)graph on `n` vertices with
/// edges (eu[j], ev[j]). Self-loops are permitted and ignored. The
/// pointer-jumping scratch is leased from `ws`.
ComponentLabels connected_components(std::size_t n, std::span<const std::int32_t> eu,
                                     std::span<const std::int32_t> ev, pram::Workspace& ws);

}  // namespace ncpm::graph
