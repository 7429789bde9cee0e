#pragma once
// Pointer jumping ("the doubling trick" of Algorithm 2) over successor arrays.
//
// A successor array encodes a functional structure `next[v]`; `next[v] == v`
// marks a terminal. Three families of primitives live here:
//
//  * Wyllie list ranking (`list_rank`, `weighted_list_rank`): distance /
//    weighted distance from every vertex to its terminal, plus the terminal
//    reached. Doubling rounds run until converged, at most
//    ceil(log2 n) + 1: a forest whose longest list has L steps stops after
//    ceil(log2 L) + 1. Used for maximal-path processing in Algorithm 2 and
//    switching-path margins in Algorithm 3.
//  * Functional-graph powers (`kth_power`): the map f^K by binary
//    exponentiation of the composition, O(log K) rounds. Used to find the
//    cycles of directed pseudoforests (Section IV-A): for K at least the
//    size of the largest weak component, the image of f^K is exactly the
//    set of on-cycle vertices.
//  * Windowed min reduction (`window_min`): min of {v, f(v), ..., f^(2^k-1)(v)}
//    per vertex, used to pick canonical roots on cycles.
//
// All functions tolerate cycles: ranking values are only meaningful for
// vertices whose `head` is a terminal; `reaches_terminal` distinguishes them.
//
// Every entry runs its rounds on the executor of the pram::Workspace it is
// handed, leases its doubling scratch from it and charges its rounds to its
// counters. Ranking and window-min each have one doubling loop
// (`detail::rank_into`, `window_min_into`); the other entries of each
// family are thin wrappers that allocate results or pick the weights.
//
// The doubling rounds themselves run through the pram/simd.hpp gather
// kernels (AVX2 uses vpgather; scalar is a plain loop) — both tiers are
// bit-exact, so results don't depend on NCPM_SIMD.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/profiler.hpp"
#include "pram/executor.hpp"
#include "pram/simd.hpp"
#include "pram/workspace.hpp"

namespace ncpm::pram {

inline constexpr std::int32_t kNone = -1;

namespace detail {

/// Run `body(lo, hi)` over the executor's static block decomposition of
/// [0, n) — the bridge from per-element rounds to the block kernels.
template <typename Body>
void for_blocks(Executor& ex, std::size_t n, Body&& body) {
  if (n == 0) return;
  const auto nlanes = static_cast<std::size_t>(ex.lanes());
  const std::size_t block = (n + nlanes - 1) / nlanes;
  const std::size_t nblocks = (n + block - 1) / block;
  ex.parallel_for(nblocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = lo + block < n ? lo + block : n;
    body(lo, hi);
  });
}

}  // namespace detail

/// ceil(log2(n)) for n >= 1; 0 for n <= 1.
inline std::uint32_t ceil_log2(std::uint64_t n) noexcept {
  std::uint32_t k = 0;
  std::uint64_t p = 1;
  while (p < n) {
    p <<= 1U;
    ++k;
  }
  return k;
}

struct ListRanking {
  /// head[v]: the vertex reached by following `next` to a fixed point; equals
  /// the terminal of v's list when v's chain ends, or a vertex still "moving"
  /// if v lies on / leads into a cycle longer than 1.
  std::vector<std::int32_t> head;
  /// rank[v]: number of `next` steps from v to head[v] (sum of weights for the
  /// weighted variant). Meaningful only when head[v] is a terminal.
  std::vector<std::int64_t> rank;
  /// reaches_terminal[v]: head[v] is a true terminal (next[head] == head).
  std::vector<std::uint8_t> reaches_terminal;
};

/// Caller-provided destination arrays for the allocation-free ranking.
struct ListRankingSpans {
  std::span<std::int32_t> head;
  std::span<std::int64_t> rank;
  std::span<std::uint8_t> reaches_terminal;
};

namespace detail {

/// The Wyllie doubling loop behind every ranking entry: rank[v] = sum of
/// the step weights from v to its terminal, where an empty `weight` weighs
/// every step 1. Doubling scratch is leased from `ws`, so a warm workspace
/// makes the whole pass allocation-free.
///
/// The loop stops once it has converged: each round's kernels report
/// whether every head was already a terminal, and such a round changed
/// nothing, so both buffers hold the result. A forest whose longest list has
/// L steps therefore runs ceil(log2 L) + 1 doubling rounds; an input with a
/// cycle never converges and runs the full ceil(log2 n) + 1.
inline void rank_into(std::span<const std::int32_t> next, std::span<const std::int64_t> weight,
                      const ListRankingSpans& out, Workspace& ws) {
  const std::size_t n = next.size();
  if (out.head.size() != n || out.rank.size() != n || out.reaches_terminal.size() != n) {
    throw std::invalid_argument("list_rank: output span size mismatch");
  }
  obs::PhaseScope phase(ws.profiler(), obs::Phase::kListRank);
  Executor& ex = ws.exec();
  auto tmp_head = ws.take<std::int32_t>(n);
  auto tmp_rank = ws.take<std::int64_t>(n);
  std::span<std::int32_t> head_cur = out.head;
  std::span<std::int32_t> head_nxt = tmp_head.span();
  std::span<std::int64_t> rank_cur = out.rank;
  std::span<std::int64_t> rank_nxt = tmp_rank.span();

  // Initialisation round, validating as it goes (a body must not throw).
  // reaches_terminal starts all-ones, which is the answer if the loop
  // converges; otherwise the final pass overwrites it.
  std::atomic<bool> flagged{false};
  for_blocks(ex, n, [&](std::size_t lo, std::size_t hi) {
    bool bad = false;
    for (std::size_t v = lo; v < hi; ++v) {
      const std::int32_t nx = next[v];
      bad |= nx < 0 || static_cast<std::size_t>(nx) >= n;
      head_cur[v] = nx;
      rank_cur[v] = static_cast<std::size_t>(nx) == v ? 0 : weight.empty() ? 1 : weight[v];
      out.reaches_terminal[v] = 1;
    }
    if (bad) flagged.store(true, std::memory_order_relaxed);
  });
  ws.round(n);
  if (flagged.load(std::memory_order_relaxed)) {
    throw std::out_of_range("list_rank: successor out of range");
  }

  const std::uint32_t max_rounds = ceil_log2(n) + 1;
  bool converged = false;
  for (std::uint32_t k = 0; k < max_rounds && !converged; ++k) {
    flagged.store(false, std::memory_order_relaxed);
    for_blocks(ex, n, [&](std::size_t lo, std::size_t hi) {
      if (!simd::list_rank_round(next.data(), head_cur.data(), rank_cur.data(),
                                 head_nxt.data(), rank_nxt.data(), lo, hi)) {
        flagged.store(true, std::memory_order_relaxed);
      }
    });
    ws.round(n);
    converged = !flagged.load(std::memory_order_relaxed);
    if (!converged) {
      std::swap(head_cur, head_nxt);
      std::swap(rank_cur, rank_nxt);
    }
  }
  if (converged) return;  // out.head / out.rank hold the result either way

  if (head_cur.data() != out.head.data()) {
    ex.parallel_for(n, [&](std::size_t v) {
      out.head[v] = head_cur[v];
      out.rank[v] = rank_cur[v];
    });
    ws.round(n);
  }
  ex.parallel_for(n, [&](std::size_t v) {
    const auto h = static_cast<std::size_t>(out.head[v]);
    out.reaches_terminal[v] = (static_cast<std::size_t>(next[h]) == h) ? 1 : 0;
  });
  ws.round(n);
}

/// rank_into over freshly allocated result arrays.
inline ListRanking ranked(std::span<const std::int32_t> next,
                          std::span<const std::int64_t> weight, Workspace& ws) {
  const std::size_t n = next.size();
  ListRanking r;
  r.head.resize(n);
  r.rank.resize(n);
  r.reaches_terminal.resize(n);
  rank_into(next, weight, {r.head, r.rank, r.reaches_terminal}, ws);
  return r;
}

}  // namespace detail

/// Wyllie pointer-jumping list ranking into caller-provided arrays:
/// rank[v] = #steps from v to its terminal, head[v] = that terminal.
/// Vertices on (or leading into) cycles get reaches_terminal[v] == 0 and
/// unspecified rank.
inline void list_rank_into(std::span<const std::int32_t> next, const ListRankingSpans& out,
                           Workspace& ws) {
  detail::rank_into(next, {}, out, ws);
}

/// list_rank_into with freshly allocated result arrays.
inline ListRanking list_rank(std::span<const std::int32_t> next, Workspace& ws) {
  return detail::ranked(next, {}, ws);
}

/// Weighted ranking: rank[v] = sum of weight[u] over every non-terminal u on
/// the path from v (inclusive) to its terminal (exclusive).
inline ListRanking weighted_list_rank(std::span<const std::int32_t> next,
                                      std::span<const std::int64_t> weight, Workspace& ws) {
  if (weight.size() != next.size()) {
    throw std::invalid_argument("weighted_list_rank: weight/next size mismatch");
  }
  return detail::ranked(next, weight, ws);
}

/// Compose two successor maps: result(v) = g[f[v]] ("apply f, then g").
inline std::vector<std::int32_t> compose(std::span<const std::int32_t> g,
                                         std::span<const std::int32_t> f, Workspace& ws) {
  const std::size_t n = f.size();
  if (g.size() != n) throw std::invalid_argument("compose: size mismatch");
  std::vector<std::int32_t> out(n);
  ws.exec().parallel_for(n, [&](std::size_t v) { out[v] = g[static_cast<std::size_t>(f[v])]; });
  ws.round(n);
  return out;
}

/// The map f^K (K >= 1 applications of `next`) via binary exponentiation of
/// the composition; O(log K) composition rounds. The powers f^(2^i) ping-pong
/// between two workspace leases and the result is composed in place, so the
/// result is the only allocation.
inline std::vector<std::int32_t> kth_power(std::span<const std::int32_t> next, std::uint64_t k,
                                           Workspace& ws) {
  const std::size_t n = next.size();
  Executor& ex = ws.exec();
  std::vector<std::int32_t> result(n);
  ex.parallel_for(n, [&](std::size_t v) { result[v] = static_cast<std::int32_t>(v); });
  ws.round(n);
  auto lease_a = ws.take<std::int32_t>(n);
  auto lease_b = ws.take<std::int32_t>(n);
  std::span<const std::int32_t> base = next;
  std::span<std::int32_t> spare = lease_a.span();
  std::span<std::int32_t> other = lease_b.span();
  while (k > 0) {
    if ((k & 1U) != 0) {
      // result = base ∘ result: each v reads and writes only result[v].
      ex.parallel_for(n, [&](std::size_t v) {
        result[v] = base[static_cast<std::size_t>(result[v])];
      });
      ws.round(n);
    }
    k >>= 1U;
    if (k > 0) {
      ex.parallel_for(n, [&](std::size_t v) { spare[v] = base[static_cast<std::size_t>(base[v])]; });
      ws.round(n);
      base = spare;
      std::swap(spare, other);
    }
  }
  return result;
}

/// out[v] = min over {key[v], key[f(v)], ..., key[f^(w-1)(v)]} where the
/// window size w is the smallest power of two >= `window`. Used to elect the
/// minimum-key vertex of every cycle (window >= cycle length covers the
/// cycle). Doubling scratch is leased from `ws`.
inline void window_min_into(std::span<const std::int32_t> next, std::span<const std::int64_t> key,
                            std::uint64_t window, std::span<std::int64_t> out, Workspace& ws) {
  const std::size_t n = next.size();
  if (key.size() != n || out.size() != n) {
    throw std::invalid_argument("window_min: size mismatch");
  }
  obs::PhaseScope phase(ws.profiler(), obs::Phase::kWindowMin);
  Executor& ex = ws.exec();
  auto tmp_val = ws.take<std::int64_t>(n);
  auto jump_a = ws.take<std::int32_t>(n);
  auto jump_b = ws.take<std::int32_t>(n);
  std::span<std::int64_t> val_cur = out;
  std::span<std::int64_t> val_nxt = tmp_val.span();
  std::span<std::int32_t> jump_cur = jump_a.span();
  std::span<std::int32_t> jump_nxt = jump_b.span();
  ex.parallel_for(n, [&](std::size_t v) {
    val_cur[v] = key[v];
    jump_cur[v] = next[v];
  });
  ws.round(n);
  const std::uint32_t rounds = ceil_log2(window == 0 ? 1 : window);
  for (std::uint32_t k = 0; k < rounds; ++k) {
    detail::for_blocks(ex, n, [&](std::size_t lo, std::size_t hi) {
      simd::window_min_round(val_cur.data(), jump_cur.data(), val_nxt.data(),
                             jump_nxt.data(), lo, hi);
    });
    std::swap(val_cur, val_nxt);
    std::swap(jump_cur, jump_nxt);
    ws.round(n);
  }
  if (val_cur.data() != out.data()) {
    ex.parallel_for(n, [&](std::size_t v) { out[v] = val_cur[v]; });
    ws.round(n);
  }
}

/// window_min_into with a freshly allocated result.
inline std::vector<std::int64_t> window_min(std::span<const std::int32_t> next,
                                            std::span<const std::int64_t> key,
                                            std::uint64_t window, Workspace& ws) {
  std::vector<std::int64_t> out(next.size());
  window_min_into(next, key, window, out, ws);
  return out;
}

}  // namespace ncpm::pram
