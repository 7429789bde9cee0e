#pragma once
// obs::PhaseAccum / obs::PhaseScope — wait-free solver-phase timing.
//
// A fixed enum of solver phases gets RAII scopes recorded into a per-worker
// accumulator: one relaxed load + one relaxed store per scope exit, zero
// allocation, and a complete no-op (no clock read, no atomics touched) when
// no accumulator is attached. Scopes nest: a scope charges only its
// *exclusive* time (elapsed minus time spent in child scopes), so the sum
// over phases never exceeds the wall-clock solve window even though
// two-regular internally runs euler-split / list-rank / window-min scopes.
//
// Scopes are created and destroyed on one orchestrating thread (the engine
// worker driving the solve); lane threads only execute loop bodies and never
// open scopes, so the current-scope chain needs no synchronization. The
// accumulated values are atomics so a concurrent scrape of a half-finished
// solve is data-race-free (it just sees a partial sum).

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace ncpm::obs {

/// Solver phases, in pipeline order. Kept dense and small: the per-request
/// breakdown travels in fixed arrays through engine results, trace spans,
/// and stats frames.
enum class Phase : std::uint8_t {
  kDecode = 0,       ///< wire bytes -> Instance (charged by the server)
  kReducedGraph,     ///< first-choice/f-post reduced graph build
  kTwoRegular,       ///< two-regular spanning subgraph selection
  kEulerSplit,       ///< euler-tour halving rounds
  kListRank,         ///< pointer-doubling list-ranking rounds
  kWindowMin,        ///< window-min (trail labeling) rounds
  kCompaction,       ///< alive-edge compaction (scan + scatter)
  kGf2Rank,          ///< GF(2) rank / pivoting
  kExtract,          ///< matching extraction + inverse rebuild
  kVerify,           ///< popularity verification
};

inline constexpr std::size_t kNumPhases = 10;

/// Stable label for a phase ("decode", "list_rank", ...), used as the
/// `phase` label value of `ncpm_solve_phase_ns` and in slow-request logs.
const char* phase_name(Phase phase) noexcept;
const char* phase_name(std::size_t index) noexcept;

class PhaseScope;

/// Per-worker phase-time accumulator, nanoseconds per phase. One instance
/// per engine worker (attached to its workspace); reset between
/// requests by the owner.
class PhaseAccum {
 public:
  PhaseAccum() noexcept = default;
  PhaseAccum(const PhaseAccum&) = delete;
  PhaseAccum& operator=(const PhaseAccum&) = delete;

  /// Adds `ns` to `phase`. Relaxed read-modify-write against concurrent
  /// readers; only the orchestrating thread writes.
  void add(Phase phase, std::uint64_t ns) noexcept {
    auto& cell = ns_[static_cast<std::size_t>(phase)];
    cell.store(cell.load(std::memory_order_relaxed) + ns,
               std::memory_order_relaxed);
  }

  std::uint64_t value(Phase phase) const noexcept {
    return ns_[static_cast<std::size_t>(phase)].load(std::memory_order_relaxed);
  }

  /// Zeroes every phase. Owner-only, between requests.
  void reset() noexcept {
    for (auto& cell : ns_) cell.store(0, std::memory_order_relaxed);
  }

  /// Copies the current per-phase totals out.
  std::array<std::uint64_t, kNumPhases> snapshot() const noexcept {
    std::array<std::uint64_t, kNumPhases> out{};
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      out[i] = ns_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  friend class PhaseScope;
  std::array<std::atomic<std::uint64_t>, kNumPhases> ns_{};
  PhaseScope* current_ = nullptr;  ///< innermost open scope (owner thread only)
};

/// RAII phase timer. Constructed with a null accumulator it does nothing at
/// all — no clock read, no stores — which is the path every solver call
/// takes when profiling is off.
class PhaseScope {
 public:
  PhaseScope(PhaseAccum* accum, Phase phase) noexcept
      : accum_(accum), phase_(phase) {
    if (accum_ == nullptr) return;
    parent_ = accum_->current_;
    accum_->current_ = this;
    start_ns_ = now_ns();
  }

  ~PhaseScope() {
    if (accum_ == nullptr) return;
    const std::uint64_t elapsed = now_ns() - start_ns_;
    const std::uint64_t self =
        elapsed >= child_ns_ ? elapsed - child_ns_ : 0;
    accum_->add(phase_, self);
    accum_->current_ = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += elapsed;
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// True when this scope is actually timing (an accumulator is attached).
  bool active() const noexcept { return accum_ != nullptr; }

 private:
  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  PhaseAccum* accum_;
  Phase phase_;
  PhaseScope* parent_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t child_ns_ = 0;
};

}  // namespace ncpm::obs
