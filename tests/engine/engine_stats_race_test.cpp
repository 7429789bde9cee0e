// Concurrent stats scraping during a pipelined submit storm (a TSan
// target in CI): Engine::stats() and Registry::snapshot() are hammered
// from reader threads while submitter threads keep the queue full.
// Properties: no data race (TSan), counters only move forward, every
// intermediate snapshot satisfies submitted >= completed, and at quiesce
// the books balance exactly: submitted == completed and nothing is
// outstanding. The EngineBooks tests drive every reachable status and check
// that EngineStats reads back exactly the registry's labelled series.

#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "obs/registry.hpp"

namespace ncpm::engine {
namespace {

std::uint64_t counter_sum(const obs::Snapshot& snap, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

TEST(EngineStatsRace, ConcurrentScrapesDuringSubmitStormStayConsistent) {
  constexpr int kSubmitters = 3;
  constexpr int kScrapers = 2;
  constexpr std::uint64_t kPerSubmitter = 60;
  constexpr std::uint64_t kTotal = kSubmitters * kPerSubmitter;

  obs::Registry registry;
  EngineConfig cfg{2, 1};
  cfg.registry = &registry;
  Engine engine(cfg);

  gen::SolvableConfig icfg;
  icfg.num_applicants = 24;
  icfg.num_posts = 60;
  icfg.seed = 11;
  const auto inst = gen::solvable_strict_instance(icfg);

  std::atomic<bool> storm_done{false};

  std::vector<std::thread> scrapers;
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&] {
      std::uint64_t last_submitted = 0;
      std::uint64_t last_completed = 0;
      while (!storm_done.load(std::memory_order_acquire)) {
        // Both scrape surfaces, interleaved: EngineStats (read back from the
        // engine's own series) and a whole registry snapshot.
        const EngineStats stats = engine.stats();
        ASSERT_GE(stats.submitted, stats.completed);
        ASSERT_GE(stats.submitted, last_submitted);
        ASSERT_GE(stats.completed, last_completed);
        ASSERT_LE(stats.submitted, kTotal);
        last_submitted = stats.submitted;
        last_completed = stats.completed;

        const obs::Snapshot snap = registry.snapshot();
        ASSERT_GE(counter_sum(snap, "ncpm_engine_submitted_total"),
                  counter_sum(snap, "ncpm_engine_completed_total"));
        // The lock-free mirrors never report impossible depths.
        ASSERT_LE(engine.queue_depth(), static_cast<std::size_t>(kTotal));
        ASSERT_LE(engine.outstanding(), static_cast<std::size_t>(kTotal));
      }
    });
  }

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      constexpr Mode kModes[] = {Mode::kSolve, Mode::kMaxCard, Mode::kCount};
      std::vector<std::future<Result>> futures;
      futures.reserve(kPerSubmitter);
      for (std::uint64_t i = 0; i < kPerSubmitter; ++i) {
        futures.push_back(
            engine.submit(Request::popular(kModes[(t + static_cast<int>(i)) % 3], inst)));
      }
      for (auto& f : futures) {
        const Result r = f.get();
        ASSERT_TRUE(r.status == Status::kOk || r.status == Status::kNoSolution);
      }
    });
  }
  for (auto& t : submitters) t.join();
  storm_done.store(true, std::memory_order_release);
  for (auto& t : scrapers) t.join();

  // Quiesce: every future resolved, so record() already ran for every
  // request (counters update before the promise is fulfilled).
  const EngineStats final_stats = engine.stats();
  EXPECT_EQ(final_stats.submitted, kTotal);
  EXPECT_EQ(final_stats.submitted, final_stats.completed);
  EXPECT_EQ(engine.outstanding(), 0u);
  EXPECT_EQ(engine.queue_depth(), 0u);

  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(counter_sum(snap, "ncpm_engine_submitted_total"), kTotal);
  EXPECT_EQ(counter_sum(snap, "ncpm_engine_completed_total"), kTotal);
  // Histograms are registered for every mode; only the three exercised
  // ones carry observations, and their quantiles must be sane.
  std::uint64_t observed = 0;
  for (const auto& h : snap.histograms) {
    if (h.name != "ncpm_engine_solve_ns" || h.count == 0) continue;
    observed += h.count;
    EXPECT_GT(h.quantile(0.5), 0.0);
    EXPECT_GE(h.quantile(0.99), h.quantile(0.5));
  }
  EXPECT_EQ(observed, kTotal);

  engine.shutdown();
}

// --- One book: EngineStats is read back from the registry series ---------

std::uint64_t series_value(const obs::Snapshot& snap, const std::string& name,
                           const obs::Labels& labels) {
  for (const auto& c : snap.counters) {
    if (c.name == name && c.labels == labels) return c.value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

std::uint64_t histogram_total(const obs::Snapshot& snap, const std::string& name,
                              const std::string& mode) {
  for (const auto& h : snap.histograms) {
    if (h.name == name && h.labels == obs::Labels{{"mode", mode}}) return h.sum;
  }
  ADD_FAILURE() << "no histogram " << name;
  return 0;
}

/// Holds the single worker inside a completion callback until released.
struct WorkerGate {
  std::promise<void> entered;
  std::promise<void> released;
  std::shared_future<void> release_signal{released.get_future().share()};
};

/// Drives a one-worker engine through every status a request can end in
/// except kError (no solver input makes one throw):
///   solve:       2 ok (one is the gate request), 1 no-solution, 1 invalid
///   max-card:    1 deadline-expired
///   next-stable: 1 invalid
///   count:       1 ok, then 3 ok drained by shutdown()
void drive_every_status(Engine& engine) {
  gen::SolvableConfig icfg;
  icfg.num_applicants = 12;
  icfg.num_posts = 30;
  icfg.seed = 5;
  const auto inst = gen::solvable_strict_instance(icfg);

  std::vector<std::future<Result>> done;
  done.push_back(engine.submit(Request::popular(Mode::kSolve, inst)));
  done.push_back(engine.submit(Request::popular(Mode::kCount, inst)));
  done.push_back(engine.submit(Request::popular(Mode::kSolve, gen::contention_instance(7))));
  done.push_back(engine.submit(Request{}));  // kSolve without an instance
  Request stable_without_instance;
  stable_without_instance.mode = Mode::kNextStable;
  done.push_back(engine.submit(std::move(stable_without_instance)));
  auto late = Request::popular(Mode::kMaxCard, inst);
  late.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  done.push_back(engine.submit(std::move(late)));
  const Status expected[] = {Status::kOk,      Status::kOk,      Status::kNoSolution,
                             Status::kInvalid, Status::kInvalid, Status::kDeadlineExpired};
  for (std::size_t i = 0; i < done.size(); ++i) {
    ASSERT_EQ(done[i].get().status, expected[i]) << "request " << i;
  }

  // Park the worker, queue three requests behind it, and shut down: the
  // drain still runs them.
  WorkerGate gate;
  engine.submit(Request::popular(Mode::kSolve, inst), [&](Result) {
    gate.entered.set_value();
    gate.release_signal.wait();
  });
  gate.entered.get_future().wait();
  std::vector<std::future<Result>> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(engine.submit(Request::popular(Mode::kCount, inst)));
  std::thread shutter([&] { engine.shutdown(); });
  gate.released.set_value();
  shutter.join();
  for (auto& f : queued) ASSERT_EQ(f.get().status, Status::kOk);
}

void expect_every_status_counted(const EngineStats& stats) {
  const auto& solve = stats.per_mode[static_cast<std::size_t>(Mode::kSolve)];
  EXPECT_EQ(solve.submitted, 4u);
  EXPECT_EQ(solve.ok, 2u);
  EXPECT_EQ(solve.no_solution, 1u);
  EXPECT_EQ(solve.invalid, 1u);
  EXPECT_EQ(solve.completed, 4u);
  const auto& max_card = stats.per_mode[static_cast<std::size_t>(Mode::kMaxCard)];
  EXPECT_EQ(max_card.deadline_expired, 1u);
  EXPECT_EQ(max_card.completed, 1u);
  const auto& next_stable = stats.per_mode[static_cast<std::size_t>(Mode::kNextStable)];
  EXPECT_EQ(next_stable.invalid, 1u);
  const auto& count = stats.per_mode[static_cast<std::size_t>(Mode::kCount)];
  EXPECT_EQ(count.submitted, 4u);
  EXPECT_EQ(count.ok, 4u);
  EXPECT_EQ(count.completed, 4u);
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.completed, 10u);
  std::uint64_t errors = 0;
  for (const auto& mode : stats.per_mode) errors += mode.errors;
  EXPECT_EQ(errors, 0u);
  // Latency totals cover completed requests only; something took time.
  EXPECT_GT(stats.solve_ns_total, 0u);
}

TEST(EngineBooks, StatsMatchTheSuppliedRegistryToTheUnit) {
  obs::Registry registry;
  EngineConfig cfg{1, 1};
  cfg.registry = &registry;
  Engine engine(cfg);
  drive_every_status(engine);

  const EngineStats stats = engine.stats();
  expect_every_status_counted(stats);
  const obs::Snapshot snap = registry.snapshot();
  std::uint64_t queue_ns = 0;
  std::uint64_t solve_ns = 0;
  for (std::size_t m = 0; m < kNumModes; ++m) {
    const std::string mode(mode_name(static_cast<Mode>(m)));
    const ModeStats& book = stats.per_mode[m];
    SCOPED_TRACE(mode);
    EXPECT_EQ(book.submitted, series_value(snap, "ncpm_engine_submitted_total", {{"mode", mode}}));
    const std::pair<Status, std::uint64_t> by_status[] = {
        {Status::kOk, book.ok},
        {Status::kNoSolution, book.no_solution},
        {Status::kDeadlineExpired, book.deadline_expired},
        {Status::kInvalid, book.invalid},
        {Status::kError, book.errors}};
    std::uint64_t completed = 0;
    for (const auto& [status, count] : by_status) {
      const auto series = series_value(
          snap, "ncpm_engine_completed_total",
          {{"mode", mode}, {"status", std::string(status_name(status))}});
      EXPECT_EQ(count, series) << status_name(status);
      completed += series;
    }
    EXPECT_EQ(book.completed, completed);
    EXPECT_EQ(book.queue_ns_total, histogram_total(snap, "ncpm_engine_queue_ns", mode));
    EXPECT_EQ(book.solve_ns_total, histogram_total(snap, "ncpm_engine_solve_ns", mode));
    queue_ns += book.queue_ns_total;
    solve_ns += book.solve_ns_total;
  }
  EXPECT_EQ(stats.queue_ns_total, queue_ns);
  EXPECT_EQ(stats.solve_ns_total, solve_ns);
  EXPECT_EQ(counter_sum(snap, "ncpm_engine_submitted_total"), stats.submitted);
  EXPECT_EQ(counter_sum(snap, "ncpm_engine_completed_total"), stats.completed);
}

TEST(EngineBooks, StatsCountEveryStatusWithoutARegistry) {
  Engine engine(EngineConfig{1, 1});
  drive_every_status(engine);
  expect_every_status_counted(engine.stats());
}

TEST(EngineStatsRace, CallbackGaugesDeregisterBeforeTheEngineDies) {
  obs::Registry registry;
  {
    EngineConfig cfg{1, 1};
    cfg.registry = &registry;
    Engine engine(cfg);
    const auto snap = registry.snapshot();
    EXPECT_EQ(counter_sum(snap, "ncpm_engine_submitted_total"), 0u);
    bool found = false;
    for (const auto& g : snap.gauges) found |= g.name == "ncpm_engine_outstanding";
    EXPECT_TRUE(found);
  }
  // The engine is gone; snapshotting must not touch its dead callbacks.
  const auto snap = registry.snapshot();
  for (const auto& g : snap.gauges) {
    EXPECT_NE(g.name, "ncpm_engine_outstanding");
    EXPECT_NE(g.name, "ncpm_engine_queue_depth");
  }
}

}  // namespace
}  // namespace ncpm::engine
