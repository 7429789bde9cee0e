#pragma once
// Parallel prefix sum (exclusive scan).
//
// Algorithm 4 of the paper compresses soft-deleted preference lists "using
// parallel prefix sum technique"; Algorithm 2 scans keep flags to compact
// its alive-edge arrays each round. The implementation is the standard
// blocked two-pass scan: per-block partial sums, a scan over the block
// sums, then a fix-up pass. Depth is O(log n) in the PRAM abstraction
// (three barrier-synchronised rounds on p processors here).
//
// The scan runs its rounds on the executor of the pram::Workspace it is
// handed, leases its scratch (the per-block partial sums) from that
// workspace and charges its rounds to the workspace's counters. Integer
// addition is exact, so results are bit-identical for every executor width
// even though the internal blocking follows the lane count.
//
// The per-block loops run through the pram/simd.hpp kernels (AVX2 or
// scalar, runtime-dispatched); the AVX2 tier is bit-exact against scalar,
// so results are also identical across SIMD tiers and NCPM_SIMD settings.

#include <cstddef>
#include <cstdint>
#include <span>

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

}  // namespace ncpm::pram
