#pragma once
// Executor: the round-synchronous PRAM substrate as an explicit object.
//
// The paper's algorithms are stated for CREW/CRCW PRAMs with a polynomial
// number of processors. We simulate that model with a persistent pool of
// hardware threads: one `parallel_for` call is one *synchronous parallel
// round* (all iterations independent, implicit barrier at the end). NC
// depth claims are validated by counting rounds of the algorithms' outer
// loops (see counters.hpp), not by wall-clock alone.
//
// Parallelism here is a *per-call* property, not process-global state:
// every layer of the pipeline runs its rounds on the Executor bound to the
// pram::Workspace it is handed (workspace.hpp), so independent solves can
// run concurrently, each with its own lane budget — the engine composes
// batch concurrency (workers) with intra-solve parallelism (lanes per
// worker) under one hardware budget.
//
// Determinism: results of every primitive are independent of the executor
// width. `parallel_for` bodies are independent by contract (EREW/CREW
// discipline; concurrent writes only through atomics, mirroring CRCW where
// an algorithm needs it); `parallel_reduce` requires an associative AND
// commutative `combine` (checked with a debug assertion on sampled
// elements), because lane partials are formed over width-dependent index
// blocks before being combined in lane order.
//
// Re-entrancy: calling a parallel primitive from inside one of the same
// executor's parallel bodies runs the nested call serially inline (the
// lanes are already busy). Distinct executors nest freely. Concurrent
// dispatch onto one executor from several threads is serialized internally.
// The one unsupported shape is concurrent *cross*-nesting: thread T1
// dispatching executor B from inside a round on A while T2 dispatches A
// from inside a round on B is a classic lock-order inversion on the two
// pools' round locks and deadlocks — nest distinct executors in one
// consistent order (in this tree, nothing cross-nests at all: each engine
// worker owns exactly one executor).
//
// Exceptions must not escape a parallel body (validate inputs before the
// round, as every call site in this library does); a body that throws
// terminates the process.

#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace ncpm::pram {

namespace detail {

/// The static schedule shared by every lane count: contiguous blocks when
/// `grain` == 0, round-robin chunks of `grain` elements otherwise
/// (mirroring OpenMP's schedule(static) / schedule(static, grain)).
template <typename Body>
void lane_ranges(std::size_t n, std::size_t grain, int lane, int nlanes, Body&& body) {
  const auto nl = static_cast<std::size_t>(nlanes);
  const auto l = static_cast<std::size_t>(lane);
  if (grain == 0) {
    const std::size_t block = (n + nl - 1) / nl;
    const std::size_t lo = l * block;
    if (lo >= n) return;
    const std::size_t hi = n - lo < block ? n : lo + block;
    body(lo, hi);
    return;
  }
  const std::size_t stride = nl * grain;
  for (std::size_t lo = l * grain; lo < n; lo += stride) {
    body(lo, n - lo < grain ? n : lo + grain);
  }
}

/// Debug-only spot check of the parallel_reduce contract: `combine` must be
/// associative and commutative (and `identity` neutral), or the result
/// would depend on the executor width. Samples the first elements; only
/// compiled for equality-comparable T, only run in assert-enabled builds.
template <typename T, typename Map, typename Combine>
void check_reduce_contract(std::size_t n, const T& identity, Map& map, Combine& combine) {
#ifdef NDEBUG
  (void)n;
  (void)identity;
  (void)map;
  (void)combine;
#else
  if constexpr (requires(const T& x, const T& y) {
                  { x == y } -> std::convertible_to<bool>;
                }) {
    if (n < 2) return;
    const T a = map(std::size_t{0});
    const T b = map(std::size_t{1});
    assert(combine(T(a), T(b)) == combine(T(b), T(a)) &&
           "pram::parallel_reduce: combine must be commutative");
    assert(combine(T(identity), T(a)) == a &&
           "pram::parallel_reduce: identity must be neutral for combine");
    if (n < 3) return;
    const T c = map(std::size_t{2});
    assert(combine(combine(T(a), T(b)), T(c)) == combine(T(a), combine(T(b), T(c))) &&
           "pram::parallel_reduce: combine must be associative");
  }
#endif
}

}  // namespace detail

/// A persistent pool of `lanes` worker threads executing synchronous
/// parallel rounds. `Executor(1)` spawns no threads and runs everything
/// inline. Move- and copy-less: share by reference (e.g. via Workspace).
class Executor {
 public:
  /// Pool of `lanes` lanes (clamped to >= 1). Lane 0 is the calling
  /// thread; lanes - 1 worker threads are spawned up front and persist.
  explicit Executor(int lanes);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Width of the pool.
  int lanes() const noexcept { return lanes_; }

  /// One synchronous parallel round: apply `f(i)` for every i in [0, n).
  template <typename F>
  void parallel_for(std::size_t n, F&& f) {
    parallel_for_grain(n, 0, std::forward<F>(f));
  }

  /// Parallel round with a grain hint for very cheap bodies (round-robin
  /// chunks of `grain` elements per lane).
  template <typename F>
  void parallel_for_grain(std::size_t n, std::size_t grain, F&& f) {
    const int nl = plan_lanes(n);
    if (nl <= 1) {
      for (std::size_t i = 0; i < n; ++i) f(i);
      return;
    }
    using Fn = std::remove_reference_t<F>;
    struct Ctx {
      Fn* f;
      std::size_t n;
      std::size_t grain;
    } ctx{std::addressof(f), n, grain};
    run_task(
        nl,
        [](void* c, int lane, int nlanes) {
          auto& s = *static_cast<Ctx*>(c);
          detail::lane_ranges(s.n, s.grain, lane, nlanes, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) (*s.f)(i);
          });
        },
        &ctx);
  }

  /// Parallel reduction: combine `map(i)` for i in [0, n) with `combine`,
  /// starting from `identity`.
  ///
  /// CONTRACT: `combine` must be associative AND commutative, with
  /// `identity` neutral — lane partials cover width-dependent contiguous
  /// blocks and are folded in lane order, so any weaker combine makes the
  /// result depend on the executor width. Debug builds spot-check the
  /// contract on the first elements (see detail::check_reduce_contract),
  /// which calls `map(0..2)` one extra time — `map` must be pure.
  template <typename T, typename Map, typename Combine>
  T parallel_reduce(std::size_t n, T identity, Map&& map, Combine&& combine) {
    detail::check_reduce_contract(n, identity, map, combine);
    const int nl = plan_lanes(n);
    if (nl <= 1) {
      T acc = identity;
      for (std::size_t i = 0; i < n; ++i) acc = combine(std::move(acc), map(i));
      return acc;
    }
    // T = bool must not land in std::vector<bool>: adjacent lanes would
    // race on bits of one shared byte. Store bools as bytes instead.
    using Storage = std::conditional_t<std::is_same_v<T, bool>, unsigned char, T>;
    // Lane partials live on the stack at realistic pool widths: reduces sit
    // inside per-round hot loops (a parallel_any per shortcut jump, per
    // degree-1 check round, ...), which must not pay a heap allocation per
    // round any more than the workspace-pooled buffers do.
    if constexpr (std::is_default_constructible_v<Storage> && std::is_move_assignable_v<Storage>) {
      constexpr int kStackLanes = 32;
      if (nl <= kStackLanes) {
        Storage partial[kStackLanes];
        for (int l = 0; l < nl; ++l) partial[static_cast<std::size_t>(l)] = Storage(identity);
        return reduce_on<T>(nl, partial, n, map, combine);
      }
    }
    std::vector<Storage> partial(static_cast<std::size_t>(nl), Storage(identity));
    return reduce_on<T>(nl, partial.data(), n, map, combine);
  }

  /// Parallel logical-OR reduction over a predicate (common early-exit
  /// test). `pred` must be pure: assert-enabled builds re-invoke it on the
  /// first elements to spot-check the reduce contract.
  template <typename Pred>
  bool parallel_any(std::size_t n, Pred&& pred) {
    return parallel_reduce(
        n, false, [&](std::size_t i) { return static_cast<bool>(pred(i)); },
        [](bool a, bool b) { return a || b; });
  }

  /// Parallel count of indices satisfying a predicate. `pred` must be
  /// pure: assert-enabled builds re-invoke it on the first elements to
  /// spot-check the reduce contract.
  template <typename Pred>
  std::size_t parallel_count(std::size_t n, Pred&& pred) {
    return parallel_reduce(
        n, std::size_t{0},
        [&](std::size_t i) { return pred(i) ? std::size_t{1} : std::size_t{0}; },
        [](std::size_t a, std::size_t b) { return a + b; });
  }

 private:
  struct Pool;
  using TaskFn = void (*)(void* ctx, int lane, int nlanes);

  /// The multi-lane reduce round over caller-provided partial storage
  /// (one `Storage(identity)`-initialized slot per lane).
  template <typename T, typename Storage, typename Map, typename Combine>
  T reduce_on(int nl, Storage* partial, std::size_t n, Map& map, Combine& combine) {
    struct Ctx {
      Map* map;
      Combine* combine;
      Storage* partial;
      std::size_t n;
    } ctx{std::addressof(map), std::addressof(combine), partial, n};
    run_task(
        nl,
        [](void* c, int lane, int nlanes) {
          auto& s = *static_cast<Ctx*>(c);
          T local = static_cast<T>(std::move(s.partial[lane]));
          detail::lane_ranges(s.n, 0, lane, nlanes, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              local = (*s.combine)(std::move(local), (*s.map)(i));
            }
          });
          s.partial[lane] = Storage(std::move(local));
        },
        &ctx);
    T result = static_cast<T>(std::move(partial[0]));
    for (int l = 1; l < nl; ++l) {
      result =
          combine(std::move(result), static_cast<T>(std::move(partial[static_cast<std::size_t>(l)])));
    }
    return result;
  }

  /// Lanes this round actually uses: 1 when the pool is serial or the call
  /// nests inside one of this executor's own bodies, else min(lanes, n).
  /// There is deliberately no small-n inline cutoff beyond n <= 1: per-item
  /// cost varies too widely across call sites (bit rows vs. whole
  /// components) to pick one here — callers with provably cheap tiny
  /// rounds pass a grain instead.
  int plan_lanes(std::size_t n) const noexcept;
  /// Fan `fn(ctx, lane, nlanes)` across lanes 0..nlanes-1 (lane 0 = caller)
  /// and barrier. Serializes concurrent dispatchers.
  void run_task(int nlanes, TaskFn fn, void* ctx);

  int lanes_ = 1;
  std::unique_ptr<Pool> pool_;  // null when lanes_ == 1
};

/// An Executor fixed at one lane: everything runs inline on the calling
/// thread, no threads are ever spawned. The baseline for the determinism
/// oracles and the cheapest executor for callers that want no parallelism.
class SerialExecutor : public Executor {
 public:
  SerialExecutor() : Executor(1) {}
};

/// Default width for new executors: the NCPM_LANES environment variable
/// when it is a whole integer >= 1, else std::thread::hardware_concurrency()
/// (any other NCPM_LANES value is reported once on stderr and ignored).
int default_lanes() noexcept;

/// The process-wide shared executor that default-constructed Workspaces
/// bind. Constructed on first use with default_lanes() lanes.
Executor& default_executor();

}  // namespace ncpm::pram
