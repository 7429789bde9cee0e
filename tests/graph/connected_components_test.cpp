// Shiloach–Vishkin-style connected components vs a BFS oracle, including
// self-loops and degenerate graphs.

#include "graph/connected_components.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>

namespace ncpm::graph {
namespace {

std::vector<std::int32_t> bfs_labels(std::size_t n, const std::vector<std::int32_t>& eu,
                                     const std::vector<std::int32_t>& ev) {
  std::vector<std::vector<std::int32_t>> adj(n);
  for (std::size_t j = 0; j < eu.size(); ++j) {
    adj[static_cast<std::size_t>(eu[j])].push_back(ev[j]);
    adj[static_cast<std::size_t>(ev[j])].push_back(eu[j]);
  }
  std::vector<std::int32_t> label(n, -1);
  for (std::size_t s = 0; s < n; ++s) {
    if (label[s] != -1) continue;
    std::deque<std::int32_t> q{static_cast<std::int32_t>(s)};
    label[s] = static_cast<std::int32_t>(s);
    while (!q.empty()) {
      const auto v = q.front();
      q.pop_front();
      for (const auto u : adj[static_cast<std::size_t>(v)]) {
        if (label[static_cast<std::size_t>(u)] == -1) {
          label[static_cast<std::size_t>(u)] = static_cast<std::int32_t>(s);
          q.push_back(u);
        }
      }
    }
  }
  return label;
}

TEST(ConnectedComponents, PathAndIsolated) {
  pram::Workspace ws;
  // 0-1-2 path, 3 isolated.
  const std::vector<std::int32_t> eu{0, 1};
  const std::vector<std::int32_t> ev{1, 2};
  const auto cc = connected_components(4, eu, ev, ws);
  EXPECT_EQ(cc.count, 2);
  EXPECT_EQ(cc.label[0], 0);
  EXPECT_EQ(cc.label[1], 0);
  EXPECT_EQ(cc.label[2], 0);
  EXPECT_EQ(cc.label[3], 3);
}

TEST(ConnectedComponents, LabelsAreComponentMinima) {
  pram::Workspace ws;
  // 5-2 and 4-1-3 components.
  const std::vector<std::int32_t> eu{5, 4, 1};
  const std::vector<std::int32_t> ev{2, 1, 3};
  const auto cc = connected_components(6, eu, ev, ws);
  EXPECT_EQ(cc.label[5], 2);
  EXPECT_EQ(cc.label[2], 2);
  EXPECT_EQ(cc.label[4], 1);
  EXPECT_EQ(cc.label[3], 1);
  EXPECT_EQ(cc.count, 3);  // {0}, {1,3,4}, {2,5}
}

TEST(ConnectedComponents, SelfLoopsIgnored) {
  pram::Workspace ws;
  const std::vector<std::int32_t> eu{0, 1};
  const std::vector<std::int32_t> ev{0, 1};
  const auto cc = connected_components(2, eu, ev, ws);
  EXPECT_EQ(cc.count, 2);
}

TEST(ConnectedComponents, EmptyGraph) {
  pram::Workspace ws;
  const auto cc = connected_components(0, {}, {}, ws);
  EXPECT_EQ(cc.count, 0);
  EXPECT_TRUE(cc.label.empty());
}

TEST(ConnectedComponents, SizeMismatchThrows) {
  pram::Workspace ws;
  const std::vector<std::int32_t> eu{0};
  const std::vector<std::int32_t> ev;
  EXPECT_THROW(connected_components(1, eu, ev, ws), std::invalid_argument);
}

struct CcParam {
  std::uint64_t seed;
  std::size_t n;
  std::size_t m;
};

class ConnectedComponentsRandom : public ::testing::TestWithParam<CcParam> {};

TEST_P(ConnectedComponentsRandom, AgreesWithBfs) {
  pram::Workspace ws;
  const auto [seed, n, m] = GetParam();
  std::mt19937_64 rng(seed);
  std::vector<std::int32_t> eu(m), ev(m);
  for (std::size_t j = 0; j < m; ++j) {
    eu[j] = static_cast<std::int32_t>(rng() % n);
    ev[j] = static_cast<std::int32_t>(rng() % n);
  }
  const auto cc = connected_components(n, eu, ev, ws);
  const auto oracle = bfs_labels(n, eu, ev);
  EXPECT_EQ(cc.label, oracle);
  std::size_t oracle_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (oracle[v] == static_cast<std::int32_t>(v)) ++oracle_count;
  }
  EXPECT_EQ(static_cast<std::size_t>(cc.count), oracle_count);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, ConnectedComponentsRandom,
    ::testing::Values(CcParam{1, 10, 5}, CcParam{2, 50, 25}, CcParam{3, 100, 300},
                      CcParam{4, 1000, 500}, CcParam{5, 1000, 3000}, CcParam{6, 5000, 100},
                      CcParam{7, 4096, 4096}));

TEST(ConnectedComponents, LongPathRoundsStayLogarithmic) {
  pram::Workspace ws;
  // A path of 65536 vertices: label propagation without pointer jumping
  // would need ~n rounds; hook+shortcut must stay well below.
  const std::size_t n = 1 << 16;
  std::vector<std::int32_t> eu(n - 1), ev(n - 1);
  for (std::size_t j = 0; j + 1 < n; ++j) {
    eu[j] = static_cast<std::int32_t>(j);
    ev[j] = static_cast<std::int32_t>(j + 1);
  }
  const auto cc = connected_components(n, eu, ev, ws);
  EXPECT_EQ(cc.count, 1);
  EXPECT_LE(cc.hook_rounds, 20u);  // ~log2(n) + slack
}

// Every hook round reads the previous round's labels only, so neither the
// hook count nor the counted rounds may depend on the executor width or on
// lane timing. Random multigraph of the BM_ConnectedComponents shape.
TEST(ConnectedComponents, HookRoundsLaneIndependent) {
  const std::size_t n = 1 << 14;
  std::mt19937_64 rng(5);
  std::vector<std::int32_t> eu(2 * n), ev(2 * n);
  for (std::size_t j = 0; j < 2 * n; ++j) {
    eu[j] = static_cast<std::int32_t>(rng() % n);
    ev[j] = static_cast<std::int32_t>(rng() % n);
  }
  pram::Executor serial(1);
  pram::Workspace ref_ws(serial);
  const auto ref = connected_components(n, eu, ev, ref_ws);
  for (const int lanes : {1, 2, 4}) {
    pram::Executor ex(lanes);
    for (int run = 0; run < 20; ++run) {
      pram::Workspace ws(ex);
      const auto cc = connected_components(n, eu, ev, ws);
      ASSERT_EQ(cc.hook_rounds, ref.hook_rounds) << "lanes " << lanes << " run " << run;
      ASSERT_EQ(ws.counters().rounds, ref_ws.counters().rounds)
          << "lanes " << lanes << " run " << run;
      ASSERT_EQ(cc.label, ref.label) << "lanes " << lanes << " run " << run;
    }
  }
}

}  // namespace
}  // namespace ncpm::graph
