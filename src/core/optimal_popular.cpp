#include "core/optimal_popular.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/max_card_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/switching_graph.hpp"

namespace ncpm::core {

std::vector<std::int64_t> matching_profile(const Instance& inst, const matching::Matching& m) {
  const auto dim = static_cast<std::size_t>(inst.max_ranks()) + 1;
  std::vector<std::int64_t> profile(dim, 0);
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const std::int32_t p = m.right_of(a);
    if (p == matching::kNone) {
      throw std::invalid_argument("matching_profile: matching is not applicant-complete");
    }
    // Last resorts share the final bucket whatever the list length (the
    // paper counts them at rank n2+1).
    ++profile[inst.is_last_resort(p) ? dim - 1 : static_cast<std::size_t>(inst.rank_of(a, p)) - 1];
  }
  return profile;
}

matching::Matching optimize_popular(const Instance& inst, const ReducedGraph& rg,
                                    const matching::Matching& popular, Objective objective,
                                    pram::Workspace& ws) {
  pram::Executor& ex = ws.exec();
  const SwitchingEngine engine(inst, rg, popular, ws);
  const std::size_t n_ext = engine.pseudoforest().size();
  const auto out = engine.out_applicant();
  const auto& pf = engine.pseudoforest();

  // A switch at v moves out[v] between its reduced posts v and pf.next[v]:
  // f(a) ranks 1, s(a) s_rank, and last resorts share bucket max_ranks().
  const auto last_resorts = static_cast<std::int32_t>(inst.max_ranks());
  const auto bucket = [&](std::size_t v, std::int32_t p) {
    const auto a = static_cast<std::size_t>(out[v]);
    if (p == rg.f_post[a]) return std::int32_t{0};
    return inst.is_last_resort(p) ? last_resorts : rg.s_rank[a] - 1;
  };

  // The keys in priority order, and the sign that makes larger better.
  // Max-card's one key is the last-resort bucket; the profile orders read
  // the buckets some switch touches (the others are zero in every margin).
  std::vector<std::int32_t> keys{last_resorts};
  if (objective != Objective::kMaxCardinality) {
    auto occurs = ws.take<std::uint8_t>(static_cast<std::size_t>(last_resorts) + 1, 0);
    const auto mark = [&](std::int32_t b) {
      std::atomic_ref<std::uint8_t>(occurs[static_cast<std::size_t>(b)])
          .store(1, std::memory_order_relaxed);
    };
    ex.parallel_for(n_ext, [&](std::size_t v) {
      if (out[v] == kNone) return;
      mark(bucket(v, static_cast<std::int32_t>(v)));
      mark(bucket(v, pf.next[v]));
    });
    ws.round(n_ext);
    keys.clear();
    for (std::int32_t b = 0; b <= last_resorts; ++b) {
      if (occurs[static_cast<std::size_t>(b)] != 0) keys.push_back(b);
    }
    if (objective == Objective::kFair) std::reverse(keys.begin(), keys.end());
  }
  const std::int64_t sign = objective == Objective::kRankMaximal ? 1 : -1;

  // One delta round and one selector refinement per key: a switch's delta
  // at vertex v is +1 in the bucket of the new post and -1 in the old
  // post's. The delta buffer is leased once and rewritten per key.
  SwitchingEngine::Selector selector(engine, ws);
  auto delta = ws.take<std::int64_t>(n_ext);
  std::int64_t* const delta_data = delta.data();
  for (const std::int32_t key : keys) {
    ex.parallel_for(n_ext, [&](std::size_t v) {
      delta_data[v] = out[v] == kNone
                          ? 0
                          : sign * (std::int64_t{bucket(v, pf.next[v]) == key} -
                                    std::int64_t{bucket(v, static_cast<std::int32_t>(v)) == key});
    });
    ws.round(n_ext);
    selector.refine(delta.span(), ws);
  }
  return engine.apply(selector.choices(ws), ws);
}

namespace {

std::optional<matching::Matching> find_optimal(const Instance& inst, Objective objective,
                                               pram::Workspace& ws) {
  const ReducedGraph rg = build_reduced_graph(inst, ws);
  const auto popular = find_popular_matching(inst, rg, ws);
  if (!popular.has_value()) return std::nullopt;
  return optimize_popular(inst, rg, *popular, objective, ws);
}

}  // namespace

std::optional<matching::Matching> find_max_card_popular(const Instance& inst, pram::Workspace& ws) {
  return find_optimal(inst, Objective::kMaxCardinality, ws);
}

std::optional<matching::Matching> find_rank_maximal_popular(const Instance& inst,
                                                            pram::Workspace& ws) {
  return find_optimal(inst, Objective::kRankMaximal, ws);
}

std::optional<matching::Matching> find_fair_popular(const Instance& inst, pram::Workspace& ws) {
  return find_optimal(inst, Objective::kFair, ws);
}

matching::Matching maximize_cardinality(const Instance& inst, const matching::Matching& popular,
                                        pram::Workspace& ws) {
  return optimize_popular(inst, build_reduced_graph(inst, ws), popular,
                          Objective::kMaxCardinality, ws);
}

}  // namespace ncpm::core
