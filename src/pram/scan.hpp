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
// The per-block fold and carry pass are plain loops in the unsigned type
// of T, so overflow wraps mod 2^w instead of being undefined for signed T.
// There is no SIMD tier here, so results cannot depend on NCPM_SIMD.

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "pram/executor.hpp"
#include "pram/workspace.hpp"

namespace ncpm::pram {

/// Exclusive prefix sum of `in` into `out` (same length) for an integer
/// type T. Returns the total. `out[i] = in[0] + ... + in[i-1]`, `out[0] =
/// 0`, all mod 2^w. The per-block partial sums are leased from `ws`:
/// allocation-free once it is warm.
template <typename T>
T exclusive_scan(std::span<const T> in, std::span<T> out, Workspace& ws) {
  using U = std::make_unsigned_t<T>;
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
    U acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += static_cast<U>(in[i]);
    block_sum[b] = static_cast<T>(acc);
  });
  ws.round(n);

  U total = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const U s = static_cast<U>(block_sum[b]);
    block_sum[b] = static_cast<T>(total);
    total += s;
  }
  ws.round(nblocks);

  ex.parallel_for(nblocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = lo + block < n ? lo + block : n;
    U carry = static_cast<U>(block_sum[b]);
    for (std::size_t i = lo; i < hi; ++i) {
      const U v = static_cast<U>(in[i]);  // tolerate in == out aliasing
      out[i] = static_cast<T>(carry);
      carry += v;
    }
  });
  ws.round(n);
  return static_cast<T>(total);
}

}  // namespace ncpm::pram
