#include "core/reduced_graph.hpp"

#include <atomic>
#include <stdexcept>

#include "obs/profiler.hpp"
#include "pram/scan.hpp"

namespace ncpm::core {

ReducedGraph build_reduced_graph(const Instance& inst, pram::Workspace& ws) {
  obs::PhaseScope phase(ws.profiler(), obs::Phase::kReducedGraph);
  if (!inst.strict_prefs()) {
    throw std::invalid_argument("build_reduced_graph: instance has ties (see core/ties.hpp)");
  }
  if (!inst.has_last_resorts()) {
    throw std::invalid_argument("build_reduced_graph: instance lacks last-resort posts");
  }
  const auto n_a = static_cast<std::size_t>(inst.num_applicants());
  const auto n_ext = static_cast<std::size_t>(inst.total_posts());
  pram::Executor& ex = ws.exec();

  ReducedGraph rg;
  rg.f_post.resize(n_a);
  rg.s_post.resize(n_a);
  rg.s_rank.resize(n_a);
  rg.is_f_post.assign(n_ext, 0);

  // Mark f-posts: posts with some rank-1 incident edge (CRCW common write).
  ex.parallel_for(n_a, [&](std::size_t a) {
    const auto posts = inst.posts_of(static_cast<std::int32_t>(a));
    rg.f_post[a] = posts[0];
    std::atomic_ref<std::uint8_t>(rg.is_f_post[static_cast<std::size_t>(posts[0])])
        .store(1, std::memory_order_relaxed);
  });
  ws.round(n_a);

  // s(a): most preferred non-f-post; the last resort if the whole list is
  // f-posts. The per-applicant scan is O(list length) work, matching the
  // paper's "for each applicant, find the highest ranked incident edge not
  // in E1" step.
  ex.parallel_for(n_a, [&](std::size_t a) {
    const auto ai = static_cast<std::int32_t>(a);
    const auto posts = inst.posts_of(ai);
    const auto ranks = inst.ranks_of(ai);
    std::int32_t s = kNone;
    std::int32_t sr = 0;
    for (std::size_t i = 0; i < posts.size(); ++i) {
      if (rg.is_f_post[static_cast<std::size_t>(posts[i])] == 0) {
        s = posts[i];
        sr = ranks[i];
        break;
      }
    }
    if (s == kNone) {
      s = inst.last_resort(ai);
      sr = inst.num_ranks(ai) + 1;
    }
    rg.s_post[a] = s;
    rg.s_rank[a] = sr;
  });
  ws.round(n_a);

  // f^-1 as CSR by counting sort over f_post.
  std::vector<std::int64_t> count(n_ext, 0);
  ex.parallel_for(n_a, [&](std::size_t a) {
    std::atomic_ref<std::int64_t>(count[static_cast<std::size_t>(rg.f_post[a])])
        .fetch_add(1, std::memory_order_relaxed);
  });
  ws.round(n_a);
  std::vector<std::int64_t> off64(n_ext);
  const std::int64_t total = pram::exclusive_scan<std::int64_t>(count, off64, ws);
  rg.f_inv_offset.resize(n_ext + 1);
  ex.parallel_for(n_ext, [&](std::size_t p) {
    rg.f_inv_offset[p] = static_cast<std::size_t>(off64[p]);
  });
  rg.f_inv_offset[n_ext] = static_cast<std::size_t>(total);
  ws.round(n_ext);
  rg.f_inv.resize(static_cast<std::size_t>(total));
  std::vector<std::int64_t> cursor(off64);
  // Sequential placement keeps f_inv sorted by applicant id (deterministic
  // promotion later); the parallel variant would use atomic cursors.
  for (std::size_t a = 0; a < n_a; ++a) {
    auto& c = cursor[static_cast<std::size_t>(rg.f_post[a])];
    rg.f_inv[static_cast<std::size_t>(c++)] = static_cast<std::int32_t>(a);
  }
  ws.round(n_a);

  for (std::size_t p = 0; p < n_ext; ++p) {
    if (rg.is_f_post[p] != 0) rg.f_posts.push_back(static_cast<std::int32_t>(p));
  }
  return rg;
}

ReducedGraph build_reduced_graph(const Instance& inst, pram::NcCounters* counters,
                                 pram::Executor& ex) {
  pram::Workspace ws(ex);
  ReducedGraph rg = build_reduced_graph(inst, ws);
  if (counters != nullptr) {
    counters->rounds += ws.counters().rounds;
    counters->work += ws.counters().work;
  }
  return rg;
}

}  // namespace ncpm::core
