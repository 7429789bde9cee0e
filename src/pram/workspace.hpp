#pragma once
// The round context every parallel algorithm in this library runs in.
//
// A Workspace carries everything a round-synchronous algorithm needs
// besides its inputs: the pram::Executor its parallel rounds run on, the
// NcCounters its rounds are charged to (`round(work)`, read back with
// `counters()`), the solver-phase profiler its obs::PhaseScope timers
// record into, and reusable scratch arenas. Every public solver entry in
// pram/, graph/, matching/, core/ and stable/ takes one
// `Workspace&` as its only context parameter, and the pipeline threads that
// one reference end to end: binding the executor here makes intra-solve
// parallelism a per-call property with no extra plumbing. The default
// constructor binds the shared default executor; engines, tests and
// benchmarks that need an explicit width bind their own.
//
// Scratch: every round-structured algorithm (Algorithm 2's while loop,
// pointer-jumping passes, connected components) needs the same families of
// scratch buffers over and over: successor arrays, rank arrays, CSR
// offsets, flag and position arrays. Allocating them anew
// each round makes the hot loop pay the allocator instead of the hardware.
// A Workspace owns typed pools of buffers; `take<T>(n)` leases one —
// growing it only when no pooled buffer is big enough — and the lease hands
// the storage back on destruction. In steady state, with capacities warmed
// up by the first round, taking and returning buffers performs no heap
// allocation; `heap_allocations()` makes that observable to tests and
// benchmarks.
//
// Leases must not outlive the workspace they came from. Buffer contents
// start unspecified (stale data from an earlier lease) unless the fill
// overload is used.
//
// Placement: pool storage allocates through CacheAlignedAllocator, so every
// leased buffer starts on a 64-byte boundary and tiled SIMD kernels never
// split a cache line at a lane's block seam. When the bound executor pins
// its lanes, the `take(n, fill)` overload (and `prefault`) doubles as
// first-touch placement: the fill round writes each lane's block from the
// lane that owns it under the static schedule, so the backing pages fault
// on — and stay local to — the CPU that will process them.

#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "pram/counters.hpp"
#include "pram/executor.hpp"
#include "pram/simd.hpp"

namespace ncpm::pram {

class Workspace;

namespace detail {
template <typename T>
void workspace_give_back(Workspace* ws, AlignedVector<T>&& buf);
}  // namespace detail

/// RAII lease of a scratch buffer from a Workspace. Move-only.
template <typename T>
class WsBuffer {
 public:
  WsBuffer() = default;
  WsBuffer(WsBuffer&& other) noexcept
      : ws_(std::exchange(other.ws_, nullptr)), buf_(std::move(other.buf_)) {}
  WsBuffer& operator=(WsBuffer&& other) noexcept {
    if (this != &other) {
      release();
      ws_ = std::exchange(other.ws_, nullptr);
      buf_ = std::move(other.buf_);
    }
    return *this;
  }
  WsBuffer(const WsBuffer&) = delete;
  WsBuffer& operator=(const WsBuffer&) = delete;
  ~WsBuffer() { release(); }

  std::span<T> span() noexcept { return buf_; }
  std::span<const T> span() const noexcept { return buf_; }
  T* data() noexcept { return buf_.data(); }
  std::size_t size() const noexcept { return buf_.size(); }
  T& operator[](std::size_t i) { return buf_[i]; }
  const T& operator[](std::size_t i) const { return buf_[i]; }

 private:
  friend class Workspace;
  WsBuffer(Workspace* ws, AlignedVector<T>&& buf) : ws_(ws), buf_(std::move(buf)) {}
  void release() {
    if (ws_ != nullptr) {
      detail::workspace_give_back<T>(ws_, std::move(buf_));
      ws_ = nullptr;
    }
  }

  Workspace* ws_ = nullptr;
  AlignedVector<T> buf_;
};

class Workspace {
 public:
  /// Bound to the shared default executor.
  Workspace() : Workspace(default_executor()) {}
  /// Bound to `ex`: every algorithm threading this workspace runs its
  /// parallel rounds on `ex`. The executor must outlive the workspace.
  explicit Workspace(Executor& ex) : ex_(&ex) {}
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The executor this workspace's algorithms run on.
  Executor& exec() const noexcept { return *ex_; }

  /// Charge one barrier-synchronised round touching `work` elements.
  /// Called by the dispatching thread between rounds, never from inside a
  /// parallel body, so the counts do not depend on the executor width.
  void round(std::uint64_t work = 0) noexcept {
    ++counters_.rounds;
    counters_.work += work;
  }
  /// Rounds and work charged since construction (or the last reset()).
  NcCounters& counters() noexcept { return counters_; }
  const NcCounters& counters() const noexcept { return counters_; }

  /// The attached solver-phase accumulator, or nullptr. Solver layers open
  /// their obs::PhaseScope timers against it; with nothing attached every
  /// scope is a complete no-op.
  obs::PhaseAccum* profiler() const noexcept { return profiler_; }
  /// Attach (or detach, with nullptr) a phase accumulator. It must outlive
  /// the attachment and is owned by the caller (the engine attaches one per
  /// worker to the worker's workspace).
  void attach_profiler(obs::PhaseAccum* accum) noexcept { profiler_ = accum; }

  /// Lease a buffer of `n` elements with unspecified contents. Prefers the
  /// smallest pooled buffer whose capacity already fits; allocates (and
  /// counts it) only when none does.
  template <typename T>
  WsBuffer<T> take(std::size_t n) {
    auto& p = pool<T>();
    AlignedVector<T> buf;
    if (!p.empty()) {
      // Best fit: smallest capacity >= n, else the largest available (it
      // will grow the least).
      std::size_t best = 0;
      for (std::size_t i = 1; i < p.size(); ++i) {
        const bool best_fits = p[best].capacity() >= n;
        const bool i_fits = p[i].capacity() >= n;
        if ((i_fits && (!best_fits || p[i].capacity() < p[best].capacity())) ||
            (!i_fits && !best_fits && p[i].capacity() > p[best].capacity())) {
          best = i;
        }
      }
      buf = std::move(p[best]);
      p[best] = std::move(p.back());
      p.pop_back();
    }
    const std::size_t cap_before = buf.capacity();
    buf.resize(n);
    if (buf.capacity() != cap_before) ++allocs_;
    return WsBuffer<T>(this, std::move(buf));
  }

  /// Lease a buffer of `n` elements, every element set to `fill` (one
  /// parallel round, not charged to counters()).
  template <typename T>
  WsBuffer<T> take(std::size_t n, T fill) {
    WsBuffer<T> out = take<T>(n);
    T* const data = out.data();
    ex_->parallel_for(n, [&](std::size_t i) { data[i] = fill; });
    return out;
  }

  /// Warm and place one pool buffer of `n` elements: lease it, zero-fill
  /// in a parallel round (each lane first-faults the pages of the block it
  /// will later own under the static schedule — on a pinned executor that
  /// is first-touch NUMA placement), and return it to the pool.
  template <typename T>
  void prefault(std::size_t n) {
    take<T>(n, T{});
  }

  /// Number of heap growths this workspace has performed (buffer and pool
  /// bookkeeping). Flat between two points in time == the region between
  /// them ran allocation-free with respect to this workspace.
  std::uint64_t heap_allocations() const noexcept { return allocs_; }

 private:
  template <typename T>
  friend void detail::workspace_give_back(Workspace* ws, AlignedVector<T>&& buf);

  template <typename T>
  std::vector<AlignedVector<T>>& pool() {
    return std::get<std::vector<AlignedVector<T>>>(pools_);
  }

  template <typename T>
  void give_back(AlignedVector<T>&& buf) {
    auto& p = pool<T>();
    if (p.size() == p.capacity()) ++allocs_;  // the push below grows the pool
    p.push_back(std::move(buf));
  }

  Executor* ex_ = nullptr;
  NcCounters counters_;
  obs::PhaseAccum* profiler_ = nullptr;  // not owned; see attach_profiler
  std::uint64_t allocs_ = 0;
  std::tuple<std::vector<AlignedVector<std::int32_t>>, std::vector<AlignedVector<std::int64_t>>,
             std::vector<AlignedVector<std::uint8_t>>, std::vector<AlignedVector<std::uint32_t>>,
             std::vector<AlignedVector<std::uint64_t>>>
      pools_;
};

namespace detail {
template <typename T>
void workspace_give_back(Workspace* ws, AlignedVector<T>&& buf) {
  ws->give_back<T>(std::move(buf));
}
}  // namespace detail

}  // namespace ncpm::pram
