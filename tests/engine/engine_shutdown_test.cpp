// Engine::shutdown() drains: every queued request runs to completion,
// every future/callback resolves exactly once, further submits throw, and
// a second shutdown is a no-op.
//
// The worker is parked deterministically: a callback request blocks the
// (single) worker thread inside its completion callback until the test
// releases it, so everything submitted behind it is provably still queued
// when shutdown runs.

#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "gen/generators.hpp"

namespace ncpm::engine {
namespace {

core::Instance small_instance(std::uint64_t seed) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 12;
  cfg.num_posts = 30;
  cfg.seed = seed;
  return gen::solvable_strict_instance(cfg);
}

/// Holds the single worker hostage inside a completion callback.
struct WorkerGate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  void block_worker() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  }
  void await_worker() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

TEST(EngineShutdown, DrainFulfillsEveryQueuedFuture) {
  Engine engine(EngineConfig{1, 1});
  WorkerGate gate;
  engine.submit(Request::popular(Mode::kSolve, small_instance(1)),
                [&](Result) { gate.block_worker(); });
  gate.await_worker();

  std::vector<std::future<Result>> queued;
  for (int i = 0; i < 5; ++i) {
    queued.push_back(engine.submit(Request::popular(Mode::kCount, small_instance(2 + i))));
  }

  std::thread shutter([&] { engine.shutdown(); });
  gate.release();
  shutter.join();

  for (auto& f : queued) {
    const auto res = f.get();
    EXPECT_EQ(res.status, Status::kOk);
    EXPECT_TRUE(res.count.has_value());
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_THROW(engine.submit(Request::popular(Mode::kSolve, small_instance(99))),
               std::runtime_error);
  engine.shutdown();  // idempotent
}

TEST(EngineShutdown, DestructorDrains) {
  std::vector<std::future<Result>> futures;
  {
    Engine engine(EngineConfig{2, 1});
    for (int i = 0; i < 8; ++i) {
      futures.push_back(engine.submit(Request::popular(Mode::kSolve, small_instance(10 + i))));
    }
  }  // ~Engine == shutdown()
  for (auto& f : futures) EXPECT_EQ(f.get().status, Status::kOk);
}

TEST(EngineShutdown, CallbackSubmitMatchesFutureSubmit) {
  Engine engine(EngineConfig{2, 2});
  const auto inst = small_instance(77);
  const auto ref = engine.submit(Request::popular(Mode::kSolve, inst)).get();

  std::promise<Result> via_callback;
  engine.submit(Request::popular(Mode::kSolve, inst),
                [&](Result res) { via_callback.set_value(std::move(res)); });
  const auto res = via_callback.get_future().get();
  ASSERT_EQ(res.status, ref.status);
  ASSERT_TRUE(res.matching.has_value());
  EXPECT_TRUE(*res.matching == *ref.matching);
  EXPECT_EQ(res.matching_size, ref.matching_size);
}

}  // namespace
}  // namespace ncpm::engine
