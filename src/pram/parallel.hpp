#pragma once
// Convenience round-synchronous primitives on the shared default executor.
//
// The substrate itself lives in executor.hpp: an Executor is a persistent
// lane pool whose methods run synchronous parallel rounds, and parallelism
// is a per-call property threaded through the pipeline (usually inside a
// pram::Workspace). The free functions here simply forward to the shared
// `default_executor()` — they keep simple callers (tests, examples,
// one-shot utilities) simple, and carry the old OpenMP-era names.
//
// There is deliberately NO process-global thread count: code that needs an
// explicit width builds its own `Executor` (or `SerialExecutor`) and passes
// it along — see executor.hpp.

#include <cstddef>
#include <utility>

#include "pram/executor.hpp"

namespace ncpm::pram {

/// One synchronous parallel round on the default executor.
template <typename F>
void parallel_for(std::size_t n, F&& f) {
  default_executor().parallel_for(n, std::forward<F>(f));
}

/// Parallel round with a grain hint, on the default executor.
template <typename F>
void parallel_for_grain(std::size_t n, std::size_t grain, F&& f) {
  default_executor().parallel_for_grain(n, grain, std::forward<F>(f));
}

/// Parallel reduction on the default executor. `combine` must be
/// associative and commutative (see Executor::parallel_reduce).
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, T identity, Map&& map, Combine&& combine) {
  return default_executor().parallel_reduce(n, std::move(identity), std::forward<Map>(map),
                                            std::forward<Combine>(combine));
}

/// Parallel logical-OR reduction over a predicate (common early-exit test).
template <typename Pred>
bool parallel_any(std::size_t n, Pred&& pred) {
  return default_executor().parallel_any(n, std::forward<Pred>(pred));
}

/// Parallel count of indices satisfying a predicate.
template <typename Pred>
std::size_t parallel_count(std::size_t n, Pred&& pred) {
  return default_executor().parallel_count(n, std::forward<Pred>(pred));
}

}  // namespace ncpm::pram
