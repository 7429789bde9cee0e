#include "core/max_card_popular.hpp"

#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"

namespace ncpm::core {

matching::Matching maximize_cardinality(const Instance& inst, const matching::Matching& popular,
                                        pram::Workspace& ws) {
  const ReducedGraph rg = build_reduced_graph(inst, ws);
  const SwitchingEngine engine(inst, rg, popular, ws);

  // Definition 4: a post is worth 1 unless it is a last resort.
  const auto n_ext = static_cast<std::size_t>(inst.total_posts());
  auto value = ws.take<std::int64_t>(n_ext);
  std::int64_t* const value_data = value.data();
  ws.exec().parallel_for(n_ext, [&](std::size_t p) {
    value_data[p] = inst.is_last_resort(static_cast<std::int32_t>(p)) ? 0 : 1;
  });
  ws.round(n_ext);

  const auto report = engine.margins(value.span(), ws);
  return engine.apply(engine.best_choices(report, ws), ws);
}

std::optional<matching::Matching> find_max_card_popular(const Instance& inst, pram::Workspace& ws) {
  const auto popular = find_popular_matching(inst, ws);
  if (!popular.has_value()) return std::nullopt;
  return maximize_cardinality(inst, *popular, ws);
}

}  // namespace ncpm::core
