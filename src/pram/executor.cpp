#include "pram/executor.hpp"

#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ncpm::pram {

namespace {

/// The executor whose round the current thread is executing (lane 0 or a
/// pool worker). A nested primitive on the same executor runs inline.
thread_local const Executor* tl_running_on = nullptr;

/// Best-effort: pin the calling thread to one CPU. A failed setaffinity
/// (cpu id outside the cgroup mask, hotplugged away, ...) leaves the
/// thread floating, which is always correct — pinning is a performance
/// property, never a correctness one.
bool pin_current_thread(int cpu) noexcept {
#if defined(__linux__)
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

}  // namespace

std::vector<int> allowed_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(static_cast<unsigned>(c), &set)) cpus.push_back(c);
    }
    if (!cpus.empty()) return cpus;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> cpus(hw == 0 ? 1 : hw);
  for (std::size_t c = 0; c < cpus.size(); ++c) cpus[c] = static_cast<int>(c);
  return cpus;
}

std::optional<std::vector<int>> parse_cpu_list(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::vector<int> cpus;
  std::size_t i = 0;
  const auto parse_num = [&](int& out) -> bool {
    if (i >= text.size() || text[i] < '0' || text[i] > '9') return false;
    long v = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      v = v * 10 + (text[i] - '0');
      if (v > 99999) return false;
      ++i;
    }
    out = static_cast<int>(v);
    return true;
  };
  for (;;) {
    int lo = 0;
    if (!parse_num(lo)) return std::nullopt;
    int hi = lo;
    if (i < text.size() && text[i] == '-') {
      ++i;
      if (!parse_num(hi) || hi < lo) return std::nullopt;
    }
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
    if (i == text.size()) break;
    if (text[i] != ',') return std::nullopt;
    ++i;  // past the comma; a trailing comma fails the next parse_num
  }
  return cpus;
}

struct Executor::Pool {
  std::mutex mu;
  std::condition_variable cv_start;
  std::condition_variable cv_done;
  TaskFn fn = nullptr;
  void* ctx = nullptr;
  int nlanes = 0;
  std::uint64_t epoch = 0;
  int unfinished = 0;
  bool stop = false;
  /// Serializes concurrent run_task callers (e.g. two engine workers
  /// sharing the default executor): one round at a time per pool.
  std::mutex dispatch_mu;
  std::vector<std::thread> threads;
};

Executor::Executor() : Executor(default_lanes()) {}

Executor::Executor(int lanes) : lanes_(lanes < 1 ? 1 : lanes) {
  start_pool();
}

Executor::Executor(const ExecutorConfig& config)
    : lanes_([&] {
        const int l = config.lanes > 0 ? config.lanes : default_lanes();
        return l < 1 ? 1 : l;
      }()),
      pin_(config.pin_lanes),
      cpus_(config.cpu_set),
      cpu_offset_(config.cpu_offset < 0 ? 0 : config.cpu_offset) {
#if !defined(__linux__)
  pin_ = false;
#endif
  if (pin_ && cpus_.empty()) cpus_ = allowed_cpus();
  if (cpus_.empty()) pin_ = false;
  if (!pin_) cpus_.clear();
  // Lane 0 is this (the future dispatching) thread: pin it now so the
  // executor's own allocations and first-touched pages land on its CPU.
  if (pin_) pin_current_thread(lane_cpu(0));
  start_pool();
}

Executor::~Executor() { stop_pool(); }

int Executor::lane_cpu(int lane) const noexcept {
  if (!pin_ || cpus_.empty() || lane < 0) return -1;
  const std::size_t idx =
      (static_cast<std::size_t>(cpu_offset_) + static_cast<std::size_t>(lane)) %
      cpus_.size();
  return cpus_[idx];
}

void Executor::start_pool() {
  if (lanes_ == 1) return;
  pool_ = std::make_unique<Pool>();
  Pool& p = *pool_;
  p.threads.reserve(static_cast<std::size_t>(lanes_ - 1));
  for (int idx = 0; idx < lanes_ - 1; ++idx) {
    p.threads.emplace_back([this, &p, idx] {
      const int lane = idx + 1;
      // New threads inherit the creator's mask; narrow to this lane's CPU
      // before any work so stacks and first-touched pages place correctly.
      if (pin_) pin_current_thread(lane_cpu(lane));
      std::uint64_t seen = 0;
      for (;;) {
        TaskFn fn = nullptr;
        void* ctx = nullptr;
        int nlanes = 0;
        {
          std::unique_lock<std::mutex> lock(p.mu);
          p.cv_start.wait(lock, [&] { return p.stop || p.epoch != seen; });
          if (p.stop) return;
          seen = p.epoch;
          fn = p.fn;
          ctx = p.ctx;
          nlanes = p.nlanes;
        }
        if (lane < nlanes) {
          tl_running_on = this;
          fn(ctx, lane, nlanes);
          tl_running_on = nullptr;
          std::lock_guard<std::mutex> lock(p.mu);
          if (--p.unfinished == 0) p.cv_done.notify_all();
        }
      }
    });
  }
}

void Executor::stop_pool() {
  if (!pool_) return;
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    pool_->stop = true;
  }
  pool_->cv_start.notify_all();
  for (auto& t : pool_->threads) t.join();
  pool_.reset();
}

void Executor::resize(int lanes) {
  const int clamped = lanes < 1 ? 1 : lanes;
  if (clamped == lanes_) return;
  stop_pool();
  lanes_ = clamped;
  start_pool();
}

int Executor::plan_lanes(std::size_t n) const noexcept {
  if (lanes_ == 1 || n <= 1) return 1;
  if (tl_running_on == this) return 1;  // nested on our own lanes: run inline
  return static_cast<std::size_t>(lanes_) < n ? lanes_ : static_cast<int>(n);
}

void Executor::run_task(int nlanes, TaskFn fn, void* ctx) {
  Pool& p = *pool_;
  std::lock_guard<std::mutex> dispatch(p.dispatch_mu);
  {
    std::lock_guard<std::mutex> lock(p.mu);
    p.fn = fn;
    p.ctx = ctx;
    p.nlanes = nlanes;
    p.unfinished = nlanes - 1;
    ++p.epoch;
  }
  p.cv_start.notify_all();
  const Executor* const prev = tl_running_on;
  tl_running_on = this;
  // noexcept: a throwing body must terminate (as it does on worker lanes via
  // std::thread) — unwinding here would destroy the ctx closure while other
  // lanes still execute it and corrupt the barrier count.
  [&]() noexcept { fn(ctx, 0, nlanes); }();
  tl_running_on = prev;
  std::unique_lock<std::mutex> lock(p.mu);
  p.cv_done.wait(lock, [&] { return p.unfinished == 0; });
}

int default_lanes() noexcept {
  static const int lanes = [] {
    if (const char* env = std::getenv("NCPM_LANES")) {
      const char* const end = env + std::strlen(env);
      int parsed = 0;
      const auto [ptr, ec] = std::from_chars(env, end, parsed);
      if (ec == std::errc() && ptr == end && parsed >= 1) return parsed;
      std::fprintf(stderr,
                   "ncpm: ignoring invalid NCPM_LANES value '%s' "
                   "(expected an integer >= 1)\n",
                   env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return lanes;
}

Executor& default_executor() {
  static Executor shared(default_lanes());
  return shared;
}

}  // namespace ncpm::pram
