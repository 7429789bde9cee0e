#include "core/popular_matching.hpp"

#include "core/applicant_complete.hpp"
#include "core/reduced_graph.hpp"
#include "obs/profiler.hpp"

namespace ncpm::core {

std::optional<matching::Matching> find_popular_matching(const Instance& inst,
                                                        pram::Workspace& ws,
                                                        PopularRunStats* stats) {
  pram::Executor& ex = ws.exec();
  std::optional<ReducedGraph> rg_holder;
  {
    obs::PhaseScope phase(ws.profiler(), obs::Phase::kReducedGraph);
    rg_holder.emplace(build_reduced_graph(inst, ws));
  }
  const ReducedGraph& rg = *rg_holder;
  ApplicantCompleteResult ac = applicant_complete_matching(inst, rg, ws);
  if (stats != nullptr) {
    stats->while_rounds = ac.while_rounds;
    stats->workspace_allocs_first_round = ac.workspace_allocs_first_round;
    stats->workspace_allocs_later_rounds = ac.workspace_allocs_later_rounds;
  }
  if (!ac.exists) return std::nullopt;

  const auto n_a = static_cast<std::size_t>(inst.num_applicants());
  const auto n_ext = static_cast<std::size_t>(inst.total_posts());
  obs::PhaseScope extract_phase(ws.profiler(), obs::Phase::kExtract);

  // Which extended posts are matched?
  auto post_matched = ws.take<std::uint8_t>(n_ext, std::uint8_t{0});
  ex.parallel_for(n_a, [&](std::size_t a) {
    post_matched[static_cast<std::size_t>(ac.post_of[a])] = 1;  // injective writes
  });
  ws.round(n_a);

  // Promote one applicant per unmatched f-post (line 5-7 of Algorithm 1).
  // f^-1 sets are disjoint, so the parallel writes touch distinct applicants.
  ex.parallel_for(n_ext, [&](std::size_t p) {
    if (rg.is_f_post[p] == 0 || post_matched[p] != 0) return;
    const auto candidates = rg.f_inverse(static_cast<std::int32_t>(p));
    const std::int32_t a = candidates[0];  // deterministic: smallest applicant id
    ac.post_of[static_cast<std::size_t>(a)] = static_cast<std::int32_t>(p);
  });
  ws.round(n_ext);

  matching::Matching m(inst.num_applicants(), inst.total_posts());
  ex.parallel_for(n_a, [&](std::size_t a) {
    m.set_pair_unchecked(static_cast<std::int32_t>(a), ac.post_of[a]);
  });
  ws.round(n_a);
  m.rebuild_inverse_and_size();
  return m;
}

}  // namespace ncpm::core
