#pragma once
// Maximal-path decomposition through degree-2 vertices via half-edge
// pointer jumping ("extend these paths by the doubling trick in polylog time
// to find maximal paths consisting of degree 2 vertices" — Algorithm 2).
//
// Given an undirected graph, every edge contributes two half-edges (one per
// direction). The successor of half-edge u→v is the half-edge v→w
// continuing through v when v has degree exactly 2; the half-edge is
// terminal otherwise. Chains of successors are precisely the directed
// traversals of the maximal paths whose internal vertices all have degree
// 2; one Wyllie list-ranking pass over all half-edges simultaneously
// yields, for every half-edge, the terminal of its traversal and its
// distance to it — everything Algorithm 2's per-round matching rule needs.
// Half-edges on all-degree-2 cycles never reach a terminal;
// `reaches_terminal()` distinguishes them (they are the even cycles left
// for the final phase of Algorithm 2).
//
// `AliveEdgePaths` is the one engine. Algorithm 2 compacts the surviving
// edges every round, so it works on an edge array in which every edge is
// alive and rebuilds degrees, the two-slot incidence needed for degree-2
// continuation, successors and the ranking in work proportional to the
// number of surviving edges: full-size per-vertex arrays are only ever
// reset at the endpoints those edges touch. Zero heap allocation once the
// owning workspace is warm.

#include <cstddef>
#include <cstdint>
#include <span>

#include "pram/workspace.hpp"

namespace ncpm::graph {

/// The per-round path engine over a compacted alive-edge array. All storage
/// is leased once from the owning workspace (sized for `max_edges` /
/// `n_vertices`); `rebuild()` then costs Θ(m_alive) work and no allocation.
///
/// Vertex-indexed state (`degree`) is only valid for vertices that are an
/// endpoint of some edge in the current compacted array — exactly the
/// vertices the round-synchronous algorithms ever query.
class AliveEdgePaths {
 public:
  AliveEdgePaths(std::size_t n_vertices, std::size_t max_edges, pram::Workspace& ws);

  /// Rebuild over the compacted edges (eu[i], ev[i]), i < eu.size() <=
  /// max_edges: links plus the list ranking. Every edge is alive;
  /// endpoints must be valid non-equal vertex ids (the caller's compaction
  /// guarantees it, so this is not re-validated here).
  void rebuild(std::span<const std::int32_t> eu, std::span<const std::int32_t> ev,
               pram::Workspace& ws) {
    rebuild_links(eu, ev, ws);
    rank(ws);
  }

  /// Stage 1 only: degrees, two-slot incidence and successors. For callers
  /// that do their own ranking over `succ()` (e.g. two_regular's cycle
  /// labelling).
  void rebuild_links(std::span<const std::int32_t> eu, std::span<const std::int32_t> ev,
                     pram::Workspace& ws);

  /// Stage 2: list-rank the successor chains; head()/rank()/
  /// reaches_terminal() are valid afterwards.
  void rank(pram::Workspace& ws);

  std::size_t n_edges() const noexcept { return m_; }
  std::size_t n_half_edges() const noexcept { return 2 * m_; }

  static std::int32_t rev(std::int32_t h) noexcept { return h ^ 1; }
  std::int32_t source(std::int32_t h) const {
    const auto e = static_cast<std::size_t>(h >> 1);
    return (h & 1) != 0 ? ev_[e] : eu_[e];
  }
  std::int32_t target(std::int32_t h) const {
    const auto e = static_cast<std::size_t>(h >> 1);
    return (h & 1) != 0 ? eu_[e] : ev_[e];
  }

  /// Degree of v in the current edge array (valid for endpoints only).
  std::int32_t degree(std::int32_t v) const { return deg_[static_cast<std::size_t>(v)]; }

  std::span<const std::int32_t> succ() const noexcept { return succ_.span().first(2 * m_); }
  std::span<const std::int32_t> head() const noexcept { return head_.span().first(2 * m_); }
  std::span<const std::int64_t> rank() const noexcept { return rank_.span().first(2 * m_); }
  std::span<const std::uint8_t> reaches_terminal() const noexcept {
    return reaches_.span().first(2 * m_);
  }

 private:
  std::size_t m_ = 0;
  std::span<const std::int32_t> eu_, ev_;  // the caller's compacted arrays
  pram::WsBuffer<std::int32_t> deg_;       // per vertex; reset only where touched
  pram::WsBuffer<std::int32_t> inc_;       // two incident-edge slots per vertex
  pram::WsBuffer<std::int32_t> succ_;
  pram::WsBuffer<std::int32_t> head_;
  pram::WsBuffer<std::int64_t> rank_;
  pram::WsBuffer<std::uint8_t> reaches_;
};

}  // namespace ncpm::graph
