#include "pram/executor.hpp"

#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

namespace ncpm::pram {

namespace {

/// The executor whose round the current thread is executing (lane 0 or a
/// pool worker). A nested primitive on the same executor runs inline.
thread_local const Executor* tl_running_on = nullptr;

}  // namespace

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

Executor::Executor(int lanes) : lanes_(lanes < 1 ? 1 : lanes) {
  if (lanes_ == 1) return;
  pool_ = std::make_unique<Pool>();
  Pool& p = *pool_;
  p.threads.reserve(static_cast<std::size_t>(lanes_ - 1));
  for (int idx = 0; idx < lanes_ - 1; ++idx) {
    p.threads.emplace_back([this, &p, idx] {
      const int lane = idx + 1;
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

Executor::~Executor() {
  if (!pool_) return;
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    pool_->stop = true;
  }
  pool_->cv_start.notify_all();
  for (auto& t : pool_->threads) t.join();
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
