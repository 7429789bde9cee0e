#include "engine/engine.hpp"

#include <stdexcept>
#include <utility>

#include "core/optimal_popular.hpp"
#include "core/switching_graph.hpp"
#include "core/ties.hpp"
#include "core/verify.hpp"
#include "obs/registry.hpp"
#include "pram/executor.hpp"
#include "pram/simd.hpp"
#include "pram/workspace.hpp"
#include "stable/gale_shapley.hpp"

namespace ncpm::engine {

namespace {

constexpr std::string_view kModeNames[kNumModes] = {
    "solve", "max-card", "fair", "rank-maximal", "count", "check", "next-stable"};

constexpr std::size_t kNumStatuses = static_cast<std::size_t>(Status::kError) + 1;

/// The ModeStats field each status is counted in.
constexpr std::uint64_t ModeStats::*kStatusFields[kNumStatuses] = {
    &ModeStats::ok, &ModeStats::no_solution, &ModeStats::deadline_expired, &ModeStats::invalid,
    &ModeStats::errors};

/// Modes whose algorithms are defined only for strict preference lists.
bool requires_strict(Mode mode) {
  return mode == Mode::kMaxCard || mode == Mode::kFair || mode == Mode::kRankMaximal ||
         mode == Mode::kCount;
}

void fill_matching(const core::Instance& inst, std::optional<matching::Matching> m,
                   pram::Workspace& ws, Result& out) {
  out.applicants = inst.num_applicants();
  if (!m.has_value()) {
    out.status = Status::kNoSolution;
    return;
  }
  out.status = Status::kOk;
  {
    // The post-solve verification/accounting pass (core/verify.hpp).
    obs::PhaseScope phase(ws.profiler(), obs::Phase::kVerify);
    out.matching_size = core::matching_size(inst, *m);
  }
  out.matching = std::move(m);
}

/// The per-mode dispatch every front end (CLI single requests, CLI batches,
/// benchmarks) funnels through. `ws` is the worker's long-lived workspace;
/// each strict pipeline threads it end-to-end so repeated requests of
/// comparable shape run without workspace growth.
void execute(const Request& req, pram::Workspace& ws, Result& out) {
  if (req.mode == Mode::kNextStable) {
    if (!req.stable_instance.has_value()) {
      out.status = Status::kInvalid;
      out.error = "next-stable request carries no stable instance";
      return;
    }
    const auto& inst = *req.stable_instance;
    const auto m0 = stable::man_optimal(inst);
    out.next_stable = stable::next_stable_matchings(inst, m0, ws);
    out.status = Status::kOk;
    return;
  }

  if (!req.instance.has_value()) {
    out.status = Status::kInvalid;
    out.error = "request carries no instance";
    return;
  }
  const auto& inst = *req.instance;
  if (!inst.has_last_resorts()) {
    out.status = Status::kInvalid;
    out.error = "popular-matching modes require last resorts";
    return;
  }
  const bool strict = inst.strict_prefs();
  if (!strict && requires_strict(req.mode)) {
    out.status = Status::kInvalid;
    out.error = std::string("mode '") + std::string(mode_name(req.mode)) +
                "' requires strict preferences; use 'solve'";
    return;
  }

  switch (req.mode) {
    case Mode::kSolve:
      if (strict) {
        fill_matching(inst, core::find_popular_matching(inst, ws, &out.run_stats), ws, out);
      } else {
        fill_matching(inst, core::find_popular_matching_ties(inst), ws, out);
      }
      return;
    case Mode::kMaxCard:
      fill_matching(inst, core::find_max_card_popular(inst, ws), ws, out);
      return;
    case Mode::kFair:
      fill_matching(inst, core::find_fair_popular(inst, ws), ws, out);
      return;
    case Mode::kRankMaximal:
      fill_matching(inst, core::find_rank_maximal_popular(inst, ws), ws, out);
      return;
    case Mode::kCount: {
      const auto count = core::count_popular_matchings(inst, ws);
      if (!count.has_value()) {
        out.status = Status::kNoSolution;
        return;
      }
      out.count = *count;
      out.status = Status::kOk;
      return;
    }
    case Mode::kCheck: {
      CheckReport report;
      report.applicants = inst.num_applicants();
      report.posts = inst.num_posts();
      report.strict = strict;
      // One G' serves the solve and the count: one reduction and one
      // pipeline run, in this worker's own workspace.
      std::optional<core::ReducedGraph> rg;
      if (strict) rg.emplace(core::build_reduced_graph(inst, ws));
      const auto m = strict ? core::find_popular_matching(inst, *rg, ws, &out.run_stats)
                            : core::find_popular_matching_ties(inst);
      report.admits_popular = m.has_value();
      if (m.has_value()) {
        {
          obs::PhaseScope phase(ws.profiler(), obs::Phase::kVerify);
          report.size = core::matching_size(inst, *m);
        }
        if (strict) report.count = core::count_popular_matchings(inst, *rg, *m, ws);
      }
      out.check = report;
      out.status = report.admits_popular ? Status::kOk : Status::kNoSolution;
      return;
    }
    case Mode::kNextStable:
      break;  // handled above
  }
  out.status = Status::kInvalid;
  out.error = "unknown mode";
}

}  // namespace

std::string_view mode_name(Mode mode) {
  return kModeNames[static_cast<std::size_t>(mode)];
}

std::optional<Mode> parse_mode(std::string_view name) {
  for (std::size_t i = 0; i < kNumModes; ++i) {
    if (kModeNames[i] == name) return static_cast<Mode>(i);
  }
  return std::nullopt;
}

std::string_view status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kNoSolution: return "no-solution";
    case Status::kDeadlineExpired: return "deadline-expired";
    case Status::kInvalid: return "invalid";
    case Status::kError: return "error";
  }
  return "unknown";
}

/// Registry handles live here (not the header) so engine.hpp only needs a
/// forward declaration of obs::Registry.
struct Engine::ObsHandles {
  obs::Counter* submitted[kNumModes];
  obs::Counter* completed[kNumModes][kNumStatuses];  ///< [mode][status]
  obs::Histogram* queue_ns[kNumModes];
  obs::Histogram* solve_ns[kNumModes];
  obs::Histogram* phase_ns[obs::kNumPhases];
};

Engine::Engine(EngineConfig config) : config_(config), start_(std::chrono::steady_clock::now()) {
  if (config_.num_workers < 1) config_.num_workers = 1;
  if (config_.lanes_per_worker < 1) config_.lanes_per_worker = 1;
  if (config_.registry == nullptr) {
    own_registry_ = std::make_unique<obs::Registry>();
    config_.registry = own_registry_.get();
  }
  obs::Registry& reg = *config_.registry;
  obs_ = std::make_unique<ObsHandles>();
  // Every series is registered up front so the hot path never takes the
  // registry mutex. Completions register before submissions: snapshot()
  // reads series in registration order, and reading a request's outcome
  // before its submission keeps submitted >= completed in any snapshot
  // taken mid-flight.
  for (std::size_t m = 0; m < kNumModes; ++m) {
    const std::string mode(kModeNames[m]);
    for (std::size_t s = 0; s < kNumStatuses; ++s) {
      obs_->completed[m][s] = &reg.counter(
          "ncpm_engine_completed_total", "Requests that reached a worker, by final status",
          {{"mode", mode}, {"status", std::string(status_name(static_cast<Status>(s)))}});
    }
  }
  for (std::size_t m = 0; m < kNumModes; ++m) {
    const obs::Labels labels{{"mode", std::string(kModeNames[m])}};
    obs_->submitted[m] = &reg.counter("ncpm_engine_submitted_total",
                                      "Requests accepted into the engine queue", labels);
    obs_->queue_ns[m] = &reg.histogram("ncpm_engine_queue_ns",
                                       "Submit-to-dequeue latency in nanoseconds", labels);
    obs_->solve_ns[m] = &reg.histogram("ncpm_engine_solve_ns",
                                       "Dequeue-to-result latency in nanoseconds", labels);
  }
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    obs_->phase_ns[p] = &reg.histogram("ncpm_solve_phase_ns",
                                       "Exclusive solver time per phase in nanoseconds",
                                       {{"phase", std::string(obs::phase_name(p))}});
  }
  reg.gauge("ncpm_engine_workers", "Worker thread count").set(config_.num_workers);
  reg.gauge("ncpm_engine_lanes_per_worker", "Executor lanes inside each worker")
      .set(config_.lanes_per_worker);
  reg.gauge("ncpm_engine_simd_tier", "Active SIMD dispatch tier (0 = scalar, 2 = avx2)")
      .set(static_cast<std::int64_t>(pram::active_simd_tier()));
  reg.gauge_callback(this, "ncpm_engine_queue_depth", "Requests queued but not yet picked up",
                     {}, [this] { return static_cast<std::int64_t>(queue_depth()); });
  reg.gauge_callback(this, "ncpm_engine_outstanding",
                     "Requests submitted but not yet fulfilled (queued + mid-solve)", {},
                     [this] { return static_cast<std::int64_t>(outstanding()); });
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  // Spawn only after the vector is fully built: a worker publishes into its
  // own slot, and slots must not move underneath it.
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread = std::thread([this, i] { worker_main(i); });
  }
}

Engine::~Engine() {
  shutdown();
  // The callback gauges capture `this`; drop them before the engine's
  // storage goes away (a supplied registry outlives the engine by contract).
  config_.registry->remove_callbacks(this);
}

void Engine::shutdown() {
  // Serialise concurrent shutdown() calls (including the destructor): only
  // one caller may join the worker threads. Workers exit only once the
  // queue is empty, so every queued request still runs.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Engine::enqueue_locked(Task&& task) {
  if (stopping_) throw std::runtime_error("engine: submit after shutdown");
  obs_->submitted[static_cast<std::size_t>(task.request.mode)]->add(1);
  queue_.push_back(std::move(task));
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  outstanding_.fetch_add(1, std::memory_order_relaxed);
}

std::future<Result> Engine::submit(Request request) {
  Task task;
  task.request = std::move(request);
  task.enqueued = std::chrono::steady_clock::now();
  task.promise.emplace();
  auto future = task.promise->get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    enqueue_locked(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void Engine::submit(Request request, Callback on_complete) {
  Task task;
  task.request = std::move(request);
  task.enqueued = std::chrono::steady_clock::now();
  task.callback = std::move(on_complete);
  {
    std::lock_guard<std::mutex> lock(mu_);
    enqueue_locked(std::move(task));
  }
  cv_.notify_one();
}

std::vector<std::future<Result>> Engine::submit_batch(std::vector<Request> requests) {
  std::vector<std::future<Result>> futures;
  futures.reserve(requests.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    for (auto& req : requests) {
      Task task;
      task.request = std::move(req);
      task.enqueued = now;
      task.promise.emplace();
      futures.push_back(task.promise->get_future());
      enqueue_locked(std::move(task));
    }
  }
  cv_.notify_all();
  return futures;
}

void Engine::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void Engine::record(const Result& result) {
  const auto m = static_cast<std::size_t>(result.mode);
  obs_->completed[m][static_cast<std::size_t>(result.status)]->add(1);
  obs_->queue_ns[m]->observe(static_cast<std::uint64_t>(result.queue_latency.count()));
  obs_->solve_ns[m]->observe(static_cast<std::uint64_t>(result.solve_time.count()));
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    // Only phases the request actually visited; a zero observation would
    // drown the distributions in first-bucket noise.
    if (result.phase_ns[p] != 0) obs_->phase_ns[p]->observe(result.phase_ns[p]);
  }
}

void Engine::fulfill(Task& task, Result&& result) {
  record(result);
  // Decrement before fulfilling: a caller woken by the promise (or the
  // callback) must observe the admission counters already released, or a
  // submit raced right after a completed .get() could still be shed.
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  if (task.callback) {
    task.callback(std::move(result));
  } else if (task.promise.has_value()) {
    task.promise->set_value(std::move(result));
  }
}

void Engine::worker_main(int worker_id) {
  // Each worker owns a private executor of lanes_per_worker lanes and a
  // long-lived workspace bound to it: intra-solve parallelism composes with
  // worker concurrency without any shared thread state.
  pram::Executor exec(config_.lanes_per_worker);
  pram::Workspace ws(exec);
  // The worker's private phase accumulator: solver layers below record
  // into it through the workspace's profiler pointer; each task resets it
  // and snapshots the totals into its Result.
  obs::PhaseAccum phase_accum;
  ws.attach_profiler(&phase_accum);
  Worker& self = *workers_[static_cast<std::size_t>(worker_id)];
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
      ++active_;
    }

    const auto dequeued = std::chrono::steady_clock::now();
    Result result;
    result.mode = task.request.mode;
    result.worker_id = worker_id;
    result.queue_latency = dequeued - task.enqueued;
    if (task.request.deadline.has_value() && dequeued > *task.request.deadline) {
      result.status = Status::kDeadlineExpired;
    } else {
      phase_accum.reset();
      if (task.request.decode_ns != 0) {
        phase_accum.add(obs::Phase::kDecode, task.request.decode_ns);
      }
      try {
        execute(task.request, ws, result);
      } catch (const std::exception& e) {
        result.status = Status::kError;
        result.error = e.what();
      }
      result.phase_ns = phase_accum.snapshot();
    }
    result.solve_time = std::chrono::steady_clock::now() - dequeued;

    self.workspace_allocs.store(ws.heap_allocations(), std::memory_order_relaxed);
    fulfill(task, std::move(result));

    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

EngineStats Engine::stats() const {
  EngineStats snapshot;
  snapshot.num_workers = config_.num_workers;
  snapshot.lanes_per_worker = config_.lanes_per_worker;
  snapshot.simd_tier = std::string(pram::simd_tier_name(pram::active_simd_tier()));
  // Outcomes first, submissions second (see the constructor): a request is
  // counted submitted before it can complete, so this order keeps
  // submitted >= completed in a snapshot taken mid-flight.
  for (std::size_t m = 0; m < kNumModes; ++m) {
    ModeStats& mode = snapshot.per_mode[m];
    for (std::size_t s = 0; s < kNumStatuses; ++s) {
      mode.*kStatusFields[s] = obs_->completed[m][s]->value();
      mode.completed += mode.*kStatusFields[s];
    }
    mode.queue_ns_total = obs_->queue_ns[m]->sum();
    mode.solve_ns_total = obs_->solve_ns[m]->sum();
  }
  for (std::size_t m = 0; m < kNumModes; ++m) {
    ModeStats& mode = snapshot.per_mode[m];
    mode.submitted = obs_->submitted[m]->value();
    snapshot.submitted += mode.submitted;
    snapshot.completed += mode.completed;
    snapshot.queue_ns_total += mode.queue_ns_total;
    snapshot.solve_ns_total += mode.solve_ns_total;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.queue_depth = queue_.size();
  }
  snapshot.uptime_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start_)
          .count());
  snapshot.workspace_allocs_per_worker.reserve(workers_.size());
  for (const auto& w : workers_) {
    const auto allocs = w->workspace_allocs.load(std::memory_order_relaxed);
    snapshot.workspace_allocs_per_worker.push_back(allocs);
    snapshot.workspace_allocs_total += allocs;
  }
  return snapshot;
}

}  // namespace ncpm::engine
