#pragma once
// Concurrent multi-instance batch solver.
//
// The NC algorithms below this layer solve *one* instance with many
// threads; production traffic is the transpose — *many* instances, each
// small enough that a single worker solves it in microseconds. An Engine
// owns a fixed pool of worker threads, each holding a long-lived
// pram::Workspace, and multiplexes a stream of typed Requests across them:
// the first few solves warm a worker's buffer pools, after which every
// further request of comparable shape runs allocation-free (the
// steady-state guarantee PR 2 established per call, amortised here across
// millions of calls).
//
// Submission is future-based: `submit` / `submit_batch` enqueue and return
// immediately; workers drain the queue FIFO. A request's deadline is
// checked when it reaches a worker, so an expired request is dropped
// without paying for its solve (a solve already running is never
// preempted). Shutdown always drains: every queued request runs before the
// workers join. Results carry per-request timing (queue latency, solve
// time), the per-phase solver breakdown, and the Algorithm 2
// round/allocation stats. The engine keeps one set of books, its
// obs::Registry series (per-mode submitted and completed-by-status
// counters, and queue/solve latency histograms); `stats()` reads them back
// into an EngineStats snapshot.
//
// Parallelism composes along two axes under one hardware budget: worker
// count (batch concurrency) x executor lanes per worker (intra-solve
// parallelism). Each worker owns a private pram::Executor of
// `lanes_per_worker` lanes — no process-global thread state anywhere — so
// a ThreadBudget of {2 workers, 4 lanes} really uses 8 threads, and a lone
// large instance can take every core while a deep queue favours workers.
// Results are bit-identical across every workers x lanes combination.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/instance.hpp"
#include "core/popular_matching.hpp"
#include "matching/matching.hpp"
#include "obs/profiler.hpp"
#include "pram/executor.hpp"
#include "stable/instance.hpp"
#include "stable/next_stable.hpp"

namespace ncpm::obs {
class Registry;
}  // namespace ncpm::obs

namespace ncpm::engine {

/// Every mode ncpm_cli serves, as a typed request kind.
enum class Mode : std::uint8_t {
  kSolve = 0,       ///< popular matching (Algorithm 1; ties via AIKM)
  kMaxCard,         ///< largest popular matching (Algorithm 3)
  kFair,            ///< fair popular matching (Section IV-E)
  kRankMaximal,     ///< rank-maximal popular matching (Section IV-E)
  kCount,           ///< number of popular matchings
  kCheck,           ///< existence + statistics only
  kNextStable,      ///< rotations exposed in the man-optimal matching (Alg. 4)
};
inline constexpr std::size_t kNumModes = 7;

std::string_view mode_name(Mode mode);
std::optional<Mode> parse_mode(std::string_view name);

enum class Status : std::uint8_t {
  kOk = 0,           ///< solved; payload fields are populated
  kNoSolution,       ///< well-formed instance admitting no popular matching
  kDeadlineExpired,  ///< deadline passed before a worker picked the request up
  kInvalid,          ///< request malformed (missing instance, mode/instance mismatch)
  kError,            ///< solver threw; Result::error carries the message
};

std::string_view status_name(Status status);

struct Request {
  Mode mode = Mode::kSolve;
  /// Popular-matching modes; ignored by kNextStable.
  std::optional<core::Instance> instance;
  /// kNextStable only.
  std::optional<stable::StableInstance> stable_instance;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Time the submitter spent decoding the wire payload into the instance,
  /// charged to the obs::Phase::kDecode bucket of the request's phase
  /// breakdown (the decode happens before the engine sees the request).
  std::uint64_t decode_ns = 0;

  static Request popular(Mode mode, core::Instance inst) {
    Request r;
    r.mode = mode;
    r.instance = std::move(inst);
    return r;
  }
  static Request next_stable(stable::StableInstance inst) {
    Request r;
    r.mode = Mode::kNextStable;
    r.stable_instance = std::move(inst);
    return r;
  }
};

/// kCheck payload: the statistics the CLI's `check` mode prints.
struct CheckReport {
  std::int32_t applicants = 0;
  std::int32_t posts = 0;
  bool strict = true;
  bool admits_popular = false;
  std::size_t size = 0;  ///< matching size when one exists
  /// Number of popular matchings (strict instances that admit one).
  std::optional<std::uint64_t> count;
};

struct Result {
  Mode mode = Mode::kSolve;
  Status status = Status::kError;
  /// kSolve / kMaxCard / kFair / kRankMaximal with status kOk.
  std::optional<matching::Matching> matching;
  std::size_t matching_size = 0;  ///< real posts only (last resorts excluded)
  std::int32_t applicants = 0;    ///< instance size, for the matching modes
  /// kCount with status kOk.
  std::optional<std::uint64_t> count;
  std::optional<CheckReport> check;                        ///< kCheck
  std::optional<stable::NextStableResult> next_stable;     ///< kNextStable
  /// Algorithm 2 round/allocation stats (strict kSolve requests).
  core::PopularRunStats run_stats;
  std::string error;  ///< kInvalid / kError explanation
  std::chrono::nanoseconds queue_latency{0};  ///< submit -> worker dequeue
  std::chrono::nanoseconds solve_time{0};     ///< dequeue -> result ready
  int worker_id = -1;
  /// Per-phase solver time (obs::Phase index -> exclusive ns), including
  /// the submitter-charged decode bucket. All zero when the request never
  /// reached a solve.
  std::array<std::uint64_t, obs::kNumPhases> phase_ns{};
};

/// One hardware budget split between batch concurrency and intra-solve
/// parallelism: `workers` x `lanes` threads in total.
struct ThreadBudget {
  int workers = 1;  ///< concurrent solves
  int lanes = 1;    ///< executor width inside each solve
  int total() const noexcept { return workers * lanes; }

  /// All of the budget into one internally-parallel solve (1 x total).
  static ThreadBudget single(int total_threads) {
    return {1, total_threads < 1 ? 1 : total_threads};
  }
  /// Split `total_threads` for an expected number of in-flight requests:
  /// start from workers = min(total, expected), give each worker
  /// total / workers lanes, then fold any remainder back into extra
  /// workers so the budget is used as fully as a uniform workers x lanes
  /// grid allows (at most lanes - 1 threads go unused, only when lanes
  /// does not divide total). A deep queue degenerates to total x 1, a
  /// single request to `single`.
  static ThreadBudget split(int total_threads, std::size_t expected_in_flight) {
    const int total = total_threads < 1 ? 1 : total_threads;
    const auto want = expected_in_flight < 1 ? std::size_t{1} : expected_in_flight;
    const int workers =
        want < static_cast<std::size_t>(total) ? static_cast<int>(want) : total;
    const int lanes = total / workers;
    return {total / lanes, lanes};
  }
};

struct EngineConfig {
  int num_workers = 1;      ///< clamped to >= 1
  int lanes_per_worker = 1; ///< width of each worker's private Executor (clamped to >= 1)
  /// Registry the engine keeps its books in; null = a private one the
  /// engine owns. The engine registers per-mode submitted and completed
  /// (labelled by status) counters, queue/solve latency and per-phase
  /// histograms, and queue-depth/outstanding callback gauges (removed again
  /// on destruction), plus worker, lane and SIMD-tier gauges. stats() reads
  /// these series, so engines sharing one registry share their counts. A
  /// supplied registry must outlive the engine.
  obs::Registry* registry = nullptr;

  EngineConfig() = default;
  EngineConfig(int workers, int lanes) : num_workers(workers), lanes_per_worker(lanes) {}
  EngineConfig(ThreadBudget budget)  // NOLINT(google-explicit-constructor)
      : num_workers(budget.workers), lanes_per_worker(budget.lanes) {}
};

struct ModeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< reached a worker and produced any status
  std::uint64_t ok = 0;
  std::uint64_t no_solution = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t invalid = 0;
  std::uint64_t errors = 0;
  std::uint64_t queue_ns_total = 0;
  std::uint64_t solve_ns_total = 0;
};

struct EngineStats {
  int num_workers = 0;
  int lanes_per_worker = 0;  ///< executor width inside each worker
  /// Active SIMD kernel tier ("avx2" / "scalar") at snapshot time
  /// — detected at startup, capped by NCPM_SIMD.
  std::string simd_tier;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t queue_ns_total = 0;
  std::uint64_t solve_ns_total = 0;
  std::uint64_t queue_depth = 0;  ///< requests waiting at snapshot time
  std::uint64_t uptime_ns = 0;  ///< since engine construction
  std::array<ModeStats, kNumModes> per_mode{};
  /// Workspace buffer growths per worker since engine start. Flat between
  /// two snapshots == the region between them ran workspace-allocation-free
  /// (the steady-state guarantee, observable per worker).
  std::vector<std::uint64_t> workspace_allocs_per_worker;
  std::uint64_t workspace_allocs_total = 0;
};

class Engine {
 public:
  /// Completion hook alternative to futures: invoked exactly once per
  /// request, on the worker thread that solved it. Keep it cheap and never
  /// block — it runs inline in the serving path, and blocking a worker here
  /// stalls the whole engine. Callers that must touch single-threaded state
  /// trampoline instead: the epoll server core's callback only encodes the
  /// response and posts it to the session's event loop via an eventfd wakeup
  /// (net/reactor.hpp, EventLoop::post).
  using Callback = std::function<void(Result)>;

  explicit Engine(EngineConfig config = {});
  /// Equivalent to shutdown().
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  std::future<Result> submit(Request request);
  /// Callback flavour, for callers that fan results out as they resolve
  /// (the net::Server write-back path) instead of blocking on futures.
  void submit(Request request, Callback on_complete);
  std::vector<std::future<Result>> submit_batch(std::vector<Request> requests);

  /// Stop accepting work (further submits throw), run every queued request
  /// to completion, and join every worker. Idempotent. Every
  /// future/callback is fulfilled exactly once.
  void shutdown();

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  EngineStats stats() const;
  int num_workers() const noexcept { return static_cast<int>(workers_.size()); }

  /// Requests queued but not yet picked up by a worker. Lock-free relaxed
  /// read — cheap enough for per-frame admission checks in the serving
  /// path; momentarily stale by design (stats() gives the locked snapshot).
  std::size_t queue_depth() const noexcept {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  /// Requests submitted whose promise/callback has not yet been fulfilled
  /// (queued + mid-solve). Same lock-free relaxed contract as queue_depth().
  std::size_t outstanding() const noexcept {
    return outstanding_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    Request request;
    /// Exactly one of promise / callback is armed.
    std::optional<std::promise<Result>> promise;
    Callback callback;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct Worker {
    std::thread thread;
    /// ws.heap_allocations() published after every task (workspace itself
    /// is thread-local to the worker loop).
    std::atomic<std::uint64_t> workspace_allocs{0};
  };

  /// Registry handles resolved once at construction (engine.cpp).
  struct ObsHandles;

  void worker_main(int worker_id);
  /// Count a finished request into the registry series.
  void record(const Result& result);
  /// record() + hand the result to the task's promise or callback.
  void fulfill(Task& task, Result&& result);
  void enqueue_locked(Task&& task);

  EngineConfig config_;
  std::chrono::steady_clock::time_point start_;
  /// Backs config_.registry when the caller supplied none.
  std::unique_ptr<obs::Registry> own_registry_;
  std::unique_ptr<ObsHandles> obs_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  int active_ = 0;
  bool stopping_ = false;
  /// Lock-free mirrors for admission control (see queue_depth() /
  /// outstanding()); the mutex-guarded fields above stay authoritative.
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::size_t> outstanding_{0};

  std::mutex shutdown_mu_;  ///< serialises concurrent shutdown() calls

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace ncpm::engine
