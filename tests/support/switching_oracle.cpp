#include "support/switching_oracle.hpp"

#include <functional>

#include "core/switching_graph.hpp"

namespace ncpm::test {

std::vector<matching::Matching> all_popular_matchings_via_switching(const core::Instance& inst,
                                                                    const core::ReducedGraph& rg,
                                                                    const matching::Matching& m,
                                                                    pram::Workspace& ws) {
  using Choice = core::SwitchingEngine::Choice;
  const core::SwitchingEngine engine(inst, rg, m, ws);
  const auto menu = engine.menu();

  // Per component: no switch, the cycle, or one path (Theorem 9).
  std::vector<matching::Matching> result;
  std::vector<Choice> current;
  const std::function<void(std::size_t)> recurse = [&](std::size_t i) {
    if (i == menu.entries.size()) {
      result.push_back(engine.apply(current, ws));
      return;
    }
    const auto with = [&](Choice c) {
      current.push_back(c);
      recurse(i + 1);
      current.pop_back();
    };
    const auto& entry = menu.entries[i];
    recurse(i + 1);
    if (entry.cycle_root != core::kNone) with({entry.cycle_root, true});
    for (const auto q : menu.starts_of(entry)) with({q, false});
  };
  recurse(0);
  return result;
}

}  // namespace ncpm::test
