#include "core/optimal_popular.hpp"

#include <functional>
#include <stdexcept>
#include <vector>

#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"

namespace ncpm::core {

Profile matching_profile(const Instance& inst, const matching::Matching& m) {
  const auto dim = static_cast<std::size_t>(inst.max_ranks()) + 1;
  Profile profile(dim);
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

namespace {

/// Shared driver for the two profile orders. `better(x, y)` = x strictly
/// improves on y.
matching::Matching optimize_profile(const Instance& inst, const matching::Matching& popular,
                                    const std::function<bool(const Profile&, const Profile&)>& better,
                                    pram::Workspace& ws) {
  pram::Executor& ex = ws.exec();
  const ReducedGraph rg = build_reduced_graph(inst, ws);
  const SwitchingEngine engine(inst, rg, popular, ws);
  const std::size_t n_ext = engine.pseudoforest().size();
  const auto out = engine.out_applicant();
  const auto& pf = engine.pseudoforest();

  // A switch at v moves out[v] between its reduced posts v and pf.next[v]:
  // f(a) ranks 1, s(a) s_rank, and last resorts share bucket max_ranks().
  // Buckets no switch touches are zero in every profile compared and drop
  // out of both orders, so the occurring ones are renumbered in rank order.
  const auto bucket = [&](std::size_t v, std::int32_t p) {
    const auto a = static_cast<std::size_t>(out[v]);
    if (p == rg.f_post[a]) return std::size_t{0};
    return static_cast<std::size_t>(inst.is_last_resort(p) ? inst.max_ranks() : rg.s_rank[a] - 1);
  };
  std::vector<std::int32_t> slot(static_cast<std::size_t>(inst.max_ranks()) + 1, kNone);
  for (std::size_t v = 0; v < n_ext; ++v) {
    if (out[v] == kNone) continue;
    slot[bucket(v, static_cast<std::int32_t>(v))] = 0;
    slot[bucket(v, pf.next[v])] = 0;
  }
  std::size_t dim = 0;
  for (auto& k : slot) k = k == kNone ? kNone : static_cast<std::int32_t>(dim++);
  auto from = ws.take<std::int32_t>(n_ext);
  auto to = ws.take<std::int32_t>(n_ext);
  ex.parallel_for(n_ext, [&](std::size_t v) {
    const bool sink = out[v] == kNone;
    from[v] = sink ? kNone : slot[bucket(v, static_cast<std::int32_t>(v))];
    to[v] = sink ? kNone : slot[bucket(v, pf.next[v])];
  });
  ws.round(n_ext);

  // One int64 margin pass per bucket; a switch's profile delta at vertex v
  // is +1 in the bucket of the new post, -1 in the old post's. The delta
  // buffer is leased once and rewritten per bucket.
  auto delta = ws.take<std::int64_t>(n_ext);
  std::int64_t* const delta_data = delta.data();
  std::vector<SwitchingEngine::MarginReport> reports;
  reports.reserve(dim);
  for (std::size_t k = 0; k < dim; ++k) {
    const auto b = static_cast<std::int32_t>(k);
    ex.parallel_for(n_ext, [&](std::size_t v) {
      delta_data[v] = std::int64_t{to[v] == b} - std::int64_t{from[v] == b};
    });
    ws.round(n_ext);
    reports.push_back(engine.margins_from_deltas(delta.span(), ws));
  }

  const auto path_profile = [&](std::int32_t q) {
    Profile p(dim);
    for (std::size_t k = 0; k < dim; ++k) p[k] = reports[k].path_margin[static_cast<std::size_t>(q)];
    return p;
  };
  const auto cycle_profile = [&](std::int32_t root) {
    Profile p(dim);
    for (std::size_t k = 0; k < dim; ++k) {
      p[k] = reports[k].cycle_margin[static_cast<std::size_t>(root)];
    }
    return p;
  };

  // Per-component selection under the profile order. Orchestration is
  // sequential over the menu (O(n) in total; the margin passes above carry
  // the NC depth), candidates visited in ascending id for determinism.
  const Profile zero(dim);
  const auto menu = engine.menu();
  std::vector<SwitchingEngine::Choice> choices;
  for (const auto& entry : menu.entries) {
    if (entry.cycle_root != kNone) {
      if (better(cycle_profile(entry.cycle_root), zero)) {
        choices.push_back({entry.cycle_root, true});
      }
      continue;
    }
    Profile best = zero;
    std::int32_t best_q = kNone;
    for (const auto q : menu.starts_of(entry)) {
      const Profile candidate = path_profile(q);
      if (better(candidate, best)) {
        best = candidate;
        best_q = q;
      }
    }
    if (best_q != kNone) choices.push_back({best_q, false});
  }
  return engine.apply(choices, ws);
}

}  // namespace

std::optional<matching::Matching> find_rank_maximal_popular(const Instance& inst,
                                                            pram::Workspace& ws) {
  const auto popular = find_popular_matching(inst, ws);
  if (!popular.has_value()) return std::nullopt;
  return optimize_profile(
      inst, *popular,
      [](const Profile& x, const Profile& y) { return Profile::rank_maximal_less(y, x); }, ws);
}

std::optional<matching::Matching> find_fair_popular(const Instance& inst, pram::Workspace& ws) {
  const auto popular = find_popular_matching(inst, ws);
  if (!popular.has_value()) return std::nullopt;
  return optimize_profile(
      inst, *popular, [](const Profile& x, const Profile& y) { return Profile::fair_less(x, y); },
      ws);
}

}  // namespace ncpm::core
