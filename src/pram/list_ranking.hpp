#pragma once
// Pointer jumping ("the doubling trick" of Algorithm 2) over successor arrays.
//
// A successor array encodes a functional structure `next[v]`; `next[v] == v`
// marks a terminal. Three families of primitives live here:
//
//  * Wyllie list ranking (`list_rank`, `weighted_list_rank`): distance /
//    weighted distance from every vertex to its terminal, plus the terminal
//    reached. O(log n) doubling rounds. Used for maximal-path processing in
//    Algorithm 2 and switching-path margins in Algorithm 3.
//  * Functional-graph powers (`kth_power`): the map f^K by binary
//    exponentiation of the composition, O(log K) rounds. Used to find the
//    cycles of directed pseudoforests (Section IV-A): for K >= n, the image
//    of f^K is exactly the set of on-cycle vertices.
//  * Windowed min reduction (`window_min`): min of {v, f(v), ..., f^(2^k-1)(v)}
//    per vertex, used to pick canonical roots on cycles.
//
// All functions tolerate cycles: ranking values are only meaningful for
// vertices whose `head` is a terminal; `reaches_terminal` distinguishes them.
//
// Rounds run on the trailing Executor argument (the shared default when
// omitted); the `_into` variants run on the executor bound to the Workspace
// their scratch is leased from.
//
// The doubling rounds themselves run through the pram/simd.hpp gather
// kernels (AVX2 uses vpgather; scalar is a plain loop) — both tiers are
// bit-exact, so results don't depend on NCPM_SIMD.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/profiler.hpp"
#include "pram/counters.hpp"
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

namespace detail {

template <typename WeightAt>
ListRanking list_rank_impl(std::span<const std::int32_t> next, WeightAt&& weight_at,
                           Executor& ex, NcCounters* counters) {
  const std::size_t n = next.size();
  ListRanking r;
  r.head.resize(n);
  r.rank.resize(n);
  r.reaches_terminal.assign(n, 0);

  // Validate outside the parallel region: a body must not throw.
  const bool bad = ex.parallel_any(n, [&](std::size_t v) {
    return next[v] < 0 || static_cast<std::size_t>(next[v]) >= n;
  });
  if (bad) throw std::out_of_range("list_rank: successor out of range");

  ex.parallel_for(n, [&](std::size_t v) {
    const std::int32_t nx = next[v];
    r.head[v] = nx;
    r.rank[v] = (static_cast<std::size_t>(nx) == v) ? 0 : weight_at(v);
  });
  add_round(counters, n);

  std::vector<std::int32_t> nhead(n);
  std::vector<std::int64_t> nrank(n);
  const std::uint32_t rounds = ceil_log2(n) + 1;
  for (std::uint32_t k = 0; k < rounds; ++k) {
    for_blocks(ex, n, [&](std::size_t lo, std::size_t hi) {
      simd::list_rank_round(r.head.data(), r.rank.data(), nhead.data(),
                            nrank.data(), lo, hi);
    });
    r.head.swap(nhead);
    r.rank.swap(nrank);
    add_round(counters, n);
  }

  ex.parallel_for(n, [&](std::size_t v) {
    const auto h = static_cast<std::size_t>(r.head[v]);
    r.reaches_terminal[v] = (static_cast<std::size_t>(next[h]) == h) ? 1 : 0;
  });
  add_round(counters, n);
  return r;
}

}  // namespace detail

/// Wyllie pointer-jumping list ranking: rank[v] = #steps from v to its
/// terminal, head[v] = that terminal. Vertices on (or leading into) cycles get
/// reaches_terminal[v] == 0 and unspecified rank.
inline ListRanking list_rank(std::span<const std::int32_t> next, NcCounters* counters = nullptr,
                             Executor& ex = default_executor()) {
  obs::PhaseScope phase(ex.profiler(), obs::Phase::kListRank);
  return detail::list_rank_impl(next, [](std::size_t) { return std::int64_t{1}; }, ex, counters);
}

/// Caller-provided destination arrays for the allocation-free ranking.
struct ListRankingSpans {
  std::span<std::int32_t> head;
  std::span<std::int64_t> rank;
  std::span<std::uint8_t> reaches_terminal;
};

/// Wyllie ranking into caller-provided arrays; doubling scratch is leased
/// from `ws` and rounds run on `ws`'s executor, so a warm workspace makes
/// the whole pass allocation-free.
inline void list_rank_into(std::span<const std::int32_t> next, const ListRankingSpans& out,
                           Workspace& ws, NcCounters* counters = nullptr) {
  const std::size_t n = next.size();
  if (out.head.size() != n || out.rank.size() != n || out.reaches_terminal.size() != n) {
    throw std::invalid_argument("list_rank_into: output span size mismatch");
  }
  obs::PhaseScope phase(ws.profiler(), obs::Phase::kListRank);
  Executor& ex = ws.exec();
  const bool bad = ex.parallel_any(n, [&](std::size_t v) {
    return next[v] < 0 || static_cast<std::size_t>(next[v]) >= n;
  });
  if (bad) throw std::out_of_range("list_rank_into: successor out of range");

  auto tmp_head = ws.take<std::int32_t>(n);
  auto tmp_rank = ws.take<std::int64_t>(n);
  std::span<std::int32_t> head_cur = out.head;
  std::span<std::int32_t> head_nxt = tmp_head.span();
  std::span<std::int64_t> rank_cur = out.rank;
  std::span<std::int64_t> rank_nxt = tmp_rank.span();

  ex.parallel_for(n, [&](std::size_t v) {
    const std::int32_t nx = next[v];
    head_cur[v] = nx;
    rank_cur[v] = (static_cast<std::size_t>(nx) == v) ? 0 : 1;
  });
  add_round(counters, n);

  const std::uint32_t rounds = ceil_log2(n) + 1;
  for (std::uint32_t k = 0; k < rounds; ++k) {
    detail::for_blocks(ex, n, [&](std::size_t lo, std::size_t hi) {
      simd::list_rank_round(head_cur.data(), rank_cur.data(), head_nxt.data(),
                            rank_nxt.data(), lo, hi);
    });
    std::swap(head_cur, head_nxt);
    std::swap(rank_cur, rank_nxt);
    add_round(counters, n);
  }
  if (head_cur.data() != out.head.data()) {
    ex.parallel_for(n, [&](std::size_t v) {
      out.head[v] = head_cur[v];
      out.rank[v] = rank_cur[v];
    });
    add_round(counters, n);
  }

  ex.parallel_for(n, [&](std::size_t v) {
    const auto h = static_cast<std::size_t>(out.head[v]);
    out.reaches_terminal[v] = (static_cast<std::size_t>(next[h]) == h) ? 1 : 0;
  });
  add_round(counters, n);
}

/// Weighted ranking: rank[v] = sum of weight[u] over every non-terminal u on
/// the path from v (inclusive) to its terminal (exclusive).
inline ListRanking weighted_list_rank(std::span<const std::int32_t> next,
                                      std::span<const std::int64_t> weight,
                                      NcCounters* counters = nullptr,
                                      Executor& ex = default_executor()) {
  if (weight.size() != next.size()) {
    throw std::invalid_argument("weighted_list_rank: weight/next size mismatch");
  }
  return detail::list_rank_impl(
      next, [&](std::size_t v) { return weight[v]; }, ex, counters);
}

/// Compose two successor maps: result(v) = g[f[v]] ("apply f, then g").
inline std::vector<std::int32_t> compose(std::span<const std::int32_t> g,
                                         std::span<const std::int32_t> f,
                                         NcCounters* counters = nullptr,
                                         Executor& ex = default_executor()) {
  const std::size_t n = f.size();
  if (g.size() != n) throw std::invalid_argument("compose: size mismatch");
  std::vector<std::int32_t> out(n);
  ex.parallel_for(n, [&](std::size_t v) { out[v] = g[static_cast<std::size_t>(f[v])]; });
  add_round(counters, n);
  return out;
}

/// The map f^K (K >= 1 applications of `next`) via binary exponentiation of
/// the composition; O(log K) composition rounds.
inline std::vector<std::int32_t> kth_power(std::span<const std::int32_t> next, std::uint64_t k,
                                           NcCounters* counters = nullptr,
                                           Executor& ex = default_executor()) {
  const std::size_t n = next.size();
  std::vector<std::int32_t> result(n);
  ex.parallel_for(n, [&](std::size_t v) { result[v] = static_cast<std::int32_t>(v); });
  add_round(counters, n);
  std::vector<std::int32_t> base(next.begin(), next.end());
  while (k > 0) {
    if ((k & 1U) != 0) result = compose(base, result, counters, ex);
    k >>= 1U;
    if (k > 0) base = compose(base, base, counters, ex);
  }
  return result;
}

/// window_min[v] = min over {key[v], key[f(v)], ..., key[f^(w-1)(v)]} where the
/// window size w is the smallest power of two >= `window`. Used to elect the
/// minimum-key vertex of every cycle (window >= cycle length covers the cycle).
inline std::vector<std::int64_t> window_min(std::span<const std::int32_t> next,
                                            std::span<const std::int64_t> key,
                                            std::uint64_t window,
                                            NcCounters* counters = nullptr,
                                            Executor& ex = default_executor()) {
  const std::size_t n = next.size();
  if (key.size() != n) throw std::invalid_argument("window_min: size mismatch");
  obs::PhaseScope phase(ex.profiler(), obs::Phase::kWindowMin);
  std::vector<std::int64_t> val(key.begin(), key.end());
  std::vector<std::int32_t> jump(next.begin(), next.end());
  std::vector<std::int64_t> nval(n);
  std::vector<std::int32_t> njump(n);
  const std::uint32_t rounds = ceil_log2(window == 0 ? 1 : window);
  for (std::uint32_t k = 0; k < rounds; ++k) {
    detail::for_blocks(ex, n, [&](std::size_t lo, std::size_t hi) {
      simd::window_min_round(val.data(), jump.data(), nval.data(), njump.data(),
                             lo, hi);
    });
    val.swap(nval);
    jump.swap(njump);
    add_round(counters, n);
  }
  return val;
}

/// window_min into a caller-provided array, doubling scratch from `ws` and
/// rounds on `ws`'s executor.
inline void window_min_into(std::span<const std::int32_t> next, std::span<const std::int64_t> key,
                            std::uint64_t window, std::span<std::int64_t> out, Workspace& ws,
                            NcCounters* counters = nullptr) {
  const std::size_t n = next.size();
  if (key.size() != n || out.size() != n) {
    throw std::invalid_argument("window_min_into: size mismatch");
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
  add_round(counters, n);
  const std::uint32_t rounds = ceil_log2(window == 0 ? 1 : window);
  for (std::uint32_t k = 0; k < rounds; ++k) {
    detail::for_blocks(ex, n, [&](std::size_t lo, std::size_t hi) {
      simd::window_min_round(val_cur.data(), jump_cur.data(), val_nxt.data(),
                             jump_nxt.data(), lo, hi);
    });
    std::swap(val_cur, val_nxt);
    std::swap(jump_cur, jump_nxt);
    add_round(counters, n);
  }
  if (val_cur.data() != out.data()) {
    ex.parallel_for(n, [&](std::size_t v) { out[v] = val_cur[v]; });
    add_round(counters, n);
  }
}

}  // namespace ncpm::pram
