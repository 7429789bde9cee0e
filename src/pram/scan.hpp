#pragma once
// Parallel prefix sums (scans) and stream compaction.
//
// Algorithm 4 of the paper compresses soft-deleted preference lists "using
// parallel prefix sum technique"; Algorithm 2 and the generators use
// compaction to rebuild alive-edge arrays each round. The implementation is
// the standard blocked two-pass scan: per-block partial sums, a scan over the
// block sums, then a fix-up pass. Depth is O(log n) in the PRAM abstraction
// (three barrier-synchronised rounds on p processors here).
//
// Every entry point runs its rounds on the executor of the pram::Workspace
// it is handed, leases its scratch (per-block partial sums, flag and
// position arrays) from that workspace and charges its rounds to the
// workspace's counters. Integer addition is exact, so results are
// bit-identical for every executor width even though the internal blocking
// follows the lane count.
//
// The per-block loops run through the pram/simd.hpp kernels (AVX2 or
// scalar, runtime-dispatched); the AVX2 tier is bit-exact against scalar,
// so results are also identical across SIMD tiers and NCPM_SIMD settings.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pram/executor.hpp"
#include "pram/simd.hpp"
#include "pram/workspace.hpp"

namespace ncpm::pram {

/// Exclusive prefix sum of `in` into `out` (same length). Returns the
/// total. `out[i] = in[0] + ... + in[i-1]`, `out[0] = 0`. The per-block
/// partial sums are leased from `ws`: allocation-free once it is warm.
template <typename T>
T exclusive_scan(std::span<const T> in, std::span<T> out, Workspace& ws) {
  const std::size_t n = in.size();
  if (n == 0) return T{};
  Executor& ex = ws.exec();
  const auto nlanes = static_cast<std::size_t>(ex.lanes());
  const std::size_t block = (n + nlanes - 1) / nlanes;
  const std::size_t nblocks = (n + block - 1) / block;
  auto block_sum = ws.take<T>(nlanes);

  ex.parallel_for(nblocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = lo + block < n ? lo + block : n;
    block_sum[b] = simd::sum<T>(in.data() + lo, hi - lo);
  });
  ws.round(n);

  T total{};
  for (std::size_t b = 0; b < nblocks; ++b) {
    const T s = block_sum[b];
    block_sum[b] = total;
    total = total + s;
  }
  ws.round(nblocks);

  ex.parallel_for(nblocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = lo + block < n ? lo + block : n;
    simd::exclusive_scan_carry<T>(in.data() + lo, out.data() + lo, hi - lo,
                                  block_sum[b]);
  });
  ws.round(n);
  return total;
}

/// Inclusive prefix sum: `out[i] = in[0] + ... + in[i]`. Returns the total.
template <typename T>
T inclusive_scan(std::span<const T> in, std::span<T> out, Workspace& ws) {
  const std::size_t n = in.size();
  if (n == 0) return T{};
  const T total = exclusive_scan<T>(in, out, ws);
  ws.exec().parallel_for(n, [&](std::size_t i) { out[i] = out[i] + in[i]; });
  ws.round(n);
  return total;
}

/// Indices i in [0, n) with keep[i] != 0, in increasing order (stream compaction).
inline std::vector<std::uint32_t> compact_indices(std::span<const std::uint8_t> keep,
                                                  Workspace& ws) {
  const std::size_t n = keep.size();
  if (n == 0) return {};
  Executor& ex = ws.exec();
  auto flags = ws.take<std::uint32_t>(n);
  auto pos = ws.take<std::uint32_t>(n);
  const auto nlanes = static_cast<std::size_t>(ex.lanes());
  const std::size_t block = (n + nlanes - 1) / nlanes;
  const std::size_t nblocks = (n + block - 1) / block;
  ex.parallel_for(nblocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = lo + block < n ? lo + block : n;
    simd::mask_to_flags(keep.data() + lo, flags.data() + lo, hi - lo);
  });
  ws.round(n);
  const std::uint32_t total = exclusive_scan<std::uint32_t>(flags.span(), pos.span(), ws);
  std::vector<std::uint32_t> out(total);
  ex.parallel_for(n, [&](std::size_t i) {
    if (keep[i] != 0) out[pos[i]] = static_cast<std::uint32_t>(i);
  });
  ws.round(n);
  return out;
}

/// Compact the elements of `values` whose flag is set, preserving order.
template <typename T>
std::vector<T> compact(std::span<const T> values, std::span<const std::uint8_t> keep,
                       Workspace& ws) {
  const auto idx = compact_indices(keep, ws);
  std::vector<T> out(idx.size());
  ws.exec().parallel_for(idx.size(), [&](std::size_t i) { out[i] = values[idx[i]]; });
  ws.round(idx.size());
  return out;
}

}  // namespace ncpm::pram
