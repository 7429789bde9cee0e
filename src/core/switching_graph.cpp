#include "core/switching_graph.hpp"

#include "core/popular_matching.hpp"

#include <atomic>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>

#include "pram/crcw.hpp"

namespace ncpm::core {

namespace {

inline void atomic_store_flag(std::uint8_t& slot) {
  std::atomic_ref<std::uint8_t>(slot).store(1, std::memory_order_relaxed);
}

}  // namespace

SwitchingEngine::SwitchingEngine(const Instance& inst, const ReducedGraph& rg,
                                 const matching::Matching& m, pram::Workspace& ws) {
  build(inst, rg, m, ws);
}

SwitchingEngine::SwitchingEngine(const Instance& inst, const ReducedGraph& rg,
                                 const matching::Matching& m, pram::NcCounters* counters,
                                 pram::Executor& ex) {
  pram::Workspace ws(ex);
  build(inst, rg, m, ws);
  if (counters != nullptr) {
    counters->rounds += ws.counters().rounds;
    counters->work += ws.counters().work;
  }
}

void SwitchingEngine::build(const Instance& inst, const ReducedGraph& rg,
                            const matching::Matching& m, pram::Workspace& ws) {
  pram::Executor& ex = ws.exec();
  const auto n_a = static_cast<std::size_t>(inst.num_applicants());
  const auto n_ext = static_cast<std::size_t>(inst.total_posts());
  post_of_.resize(n_a);
  pf_.next.assign(n_ext, pram::kNone);
  out_applicant_.assign(n_ext, kNone);
  is_s_post_.assign(n_ext, 0);

  // M must live inside the reduced graph (Theorem 1 condition (ii)).
  // Validate outside the parallel region: a body must not throw.
  const bool invalid = ex.parallel_any(n_a, [&](std::size_t a) {
    const std::int32_t mp = m.right_of(static_cast<std::int32_t>(a));
    return mp != rg.f_post[a] && mp != rg.s_post[a];
  });
  if (invalid) {
    throw std::invalid_argument("SwitchingEngine: matching is not within the reduced graph");
  }

  // Edges: M(a) -> O_M(a), labelled a.
  ex.parallel_for(n_a, [&](std::size_t a) {
    const auto ai = static_cast<std::int32_t>(a);
    const std::int32_t mp = m.right_of(ai);
    post_of_[a] = mp;
    const std::int32_t f = rg.f_post[a];
    const std::int32_t s = rg.s_post[a];
    const std::int32_t other = mp == f ? s : f;
    pf_.next[static_cast<std::size_t>(mp)] = other;  // exclusive: M is a matching
    out_applicant_[static_cast<std::size_t>(mp)] = ai;
    atomic_store_flag(is_s_post_[static_cast<std::size_t>(s)]);
  });
  ws.round(n_a);

  cycles_ = graph::analyze_cycles(pf_, ws);

  has_cycle_.assign(n_ext, 0);
  ex.parallel_for(n_ext, [&](std::size_t v) {
    if (cycles_.on_cycle[v] != 0) {
      atomic_store_flag(has_cycle_[static_cast<std::size_t>(cycles_.component[v])]);
    }
  });
  ws.round(n_ext);

  // Broken successors: terminals at sinks and at cycle roots.
  broken_succ_.resize(n_ext);
  ex.parallel_for(n_ext, [&](std::size_t v) {
    const bool terminal =
        pf_.is_sink(v) ||
        (cycles_.on_cycle[v] != 0 && cycles_.cycle_root[v] == static_cast<std::int32_t>(v));
    broken_succ_[v] = terminal ? static_cast<std::int32_t>(v) : pf_.next[v];
  });
  ws.round(n_ext);
  steps_ = pram::list_rank(broken_succ_, ws);

  // Binary-lifting tables for path marking: lift_[k][v] = broken_succ_^(2^k)(v).
  const std::uint32_t levels = pram::ceil_log2(n_ext == 0 ? 1 : n_ext) + 1;
  lift_.resize(levels);
  lift_[0] = broken_succ_;
  for (std::uint32_t k = 1; k < levels; ++k) {
    lift_[k] = pram::compose(lift_[k - 1], lift_[k - 1], ws);
  }
}

SwitchingEngine::MarginReport SwitchingEngine::margins(std::span<const std::int64_t> post_value,
                                                       pram::Workspace& ws) const {
  const std::size_t n_ext = pf_.size();
  if (post_value.size() != n_ext) {
    throw std::invalid_argument("SwitchingEngine::margins: post_value size mismatch");
  }
  // Vertex delta = the change contributed by the applicant on v's out-edge.
  std::vector<std::int64_t> delta(n_ext, 0);
  ws.exec().parallel_for(n_ext, [&](std::size_t v) {
    if (out_applicant_[v] != kNone) {
      delta[v] = post_value[static_cast<std::size_t>(pf_.next[v])] - post_value[v];
    }
  });
  ws.round(n_ext);
  return margins_from_deltas(delta, ws);
}

SwitchingEngine::MarginReport SwitchingEngine::margins_from_deltas(
    std::span<const std::int64_t> vertex_delta, pram::Workspace& ws) const {
  const std::size_t n_ext = pf_.size();
  if (vertex_delta.size() != n_ext) {
    throw std::invalid_argument("SwitchingEngine::margins_from_deltas: size mismatch");
  }
  auto ranking = pram::weighted_list_rank(broken_succ_, vertex_delta, ws);

  MarginReport report;
  report.path_margin = std::move(ranking.rank);
  report.cycle_margin.assign(n_ext, 0);
  ws.exec().parallel_for(n_ext, [&](std::size_t v) {
    if (cycles_.on_cycle[v] != 0 && cycles_.cycle_root[v] == static_cast<std::int32_t>(v)) {
      // The root is the ranking terminal, so its own weight is re-added.
      const auto succ = static_cast<std::size_t>(pf_.next[v]);
      report.cycle_margin[v] = vertex_delta[v] + report.path_margin[succ];
    }
  });
  ws.round(n_ext);
  return report;
}

std::vector<SwitchingEngine::Choice> SwitchingEngine::best_choices(
    const MarginReport& report, pram::Workspace& ws) const {
  const std::size_t n_ext = pf_.size();
  pram::Executor& ex = ws.exec();
  std::vector<Choice> choices;

  // Cycle components: apply the unique switching cycle iff its margin > 0.
  std::vector<std::uint8_t> cycle_chosen(n_ext, 0);
  ex.parallel_for(n_ext, [&](std::size_t v) {
    if (cycles_.on_cycle[v] != 0 && cycles_.cycle_root[v] == static_cast<std::int32_t>(v) &&
        report.cycle_margin[v] > 0) {
      cycle_chosen[v] = 1;
    }
  });
  ws.round(n_ext);

  // Tree components: the best-margin s-post start, ties to the smallest id.
  std::vector<std::int64_t> best_margin(n_ext, std::numeric_limits<std::int64_t>::min());
  ex.parallel_for(n_ext, [&](std::size_t q) {
    if (is_s_post_[q] == 0 || out_applicant_[q] == kNone) return;
    const auto comp = static_cast<std::size_t>(cycles_.component[q]);
    if (has_cycle_[comp] != 0) return;
    pram::crcw_max(best_margin[comp], report.path_margin[q]);
  });
  ws.round(n_ext);
  std::vector<std::int32_t> best_start(n_ext, std::numeric_limits<std::int32_t>::max());
  ex.parallel_for(n_ext, [&](std::size_t q) {
    if (is_s_post_[q] == 0 || out_applicant_[q] == kNone) return;
    const auto comp = static_cast<std::size_t>(cycles_.component[q]);
    if (has_cycle_[comp] != 0) return;
    if (report.path_margin[q] == best_margin[comp]) {
      pram::crcw_min(best_start[comp], static_cast<std::int32_t>(q));
    }
  });
  ws.round(n_ext);

  for (std::size_t v = 0; v < n_ext; ++v) {
    if (cycle_chosen[v] != 0) {
      choices.push_back({static_cast<std::int32_t>(v), true});
    }
    if (best_margin[v] > 0 && best_start[v] != std::numeric_limits<std::int32_t>::max()) {
      choices.push_back({best_start[v], false});
    }
  }
  return choices;
}

matching::Matching SwitchingEngine::apply(std::span<const Choice> choices,
                                          pram::Workspace& ws) const {
  const std::size_t n_ext = pf_.size();
  pram::Executor& ex = ws.exec();
  const std::size_t n_a = post_of_.size();

  std::vector<std::uint8_t> cycle_root_chosen(n_ext, 0);
  std::vector<std::int32_t> path_start(n_ext, kNone);  // per component label
  for (const auto& c : choices) {
    if (c.key < 0 || static_cast<std::size_t>(c.key) >= n_ext) {
      throw std::invalid_argument("SwitchingEngine::apply: choice key is not a post vertex");
    }
    const auto key = static_cast<std::size_t>(c.key);
    if (c.is_cycle) {
      if (cycles_.on_cycle[key] == 0 || cycles_.cycle_root[key] != c.key) {
        throw std::invalid_argument("SwitchingEngine::apply: cycle key is not a cycle root");
      }
      cycle_root_chosen[key] = 1;
    } else {
      if (is_s_post_[key] == 0 || out_applicant_[key] == kNone) {
        throw std::invalid_argument("SwitchingEngine::apply: path start is not a matched s-post");
      }
      const auto comp = static_cast<std::size_t>(cycles_.component[key]);
      if (has_cycle_[comp] != 0) {
        throw std::invalid_argument("SwitchingEngine::apply: path start lies in a cycle component");
      }
      if (path_start[comp] != kNone) {
        throw std::invalid_argument("SwitchingEngine::apply: two switches in one component");
      }
      path_start[comp] = c.key;
    }
  }

  // Which vertices switch? Cycle members of chosen cycles; vertices on the
  // q* -> sink walk for chosen paths. v lies on that walk iff
  // steps(v) <= steps(q*) and broken_succ^(steps(q*) - steps(v))(q*) == v,
  // evaluated with the binary-lifting tables in O(log n) each.
  std::vector<std::uint8_t> switches(n_ext, 0);
  ex.parallel_for(n_ext, [&](std::size_t v) {
    if (out_applicant_[v] == kNone) return;  // sinks and isolated posts never move
    if (cycles_.on_cycle[v] != 0) {
      if (cycle_root_chosen[static_cast<std::size_t>(cycles_.cycle_root[v])] != 0) switches[v] = 1;
      return;
    }
    const auto comp = static_cast<std::size_t>(cycles_.component[v]);
    const std::int32_t q = path_start[comp];
    if (q == kNone) return;
    const std::int64_t delta = steps_.rank[static_cast<std::size_t>(q)] - steps_.rank[v];
    if (delta < 0) return;
    std::int32_t u = q;
    std::uint64_t bits = static_cast<std::uint64_t>(delta);
    for (std::uint32_t k = 0; bits != 0; ++k, bits >>= 1U) {
      if ((bits & 1U) != 0) u = lift_[k][static_cast<std::size_t>(u)];
    }
    if (u == static_cast<std::int32_t>(v)) switches[v] = 1;
  });
  ws.round(n_ext);

  matching::Matching out(static_cast<std::int32_t>(n_a), static_cast<std::int32_t>(n_ext));
  ex.parallel_for(n_a, [&](std::size_t a) {
    out.set_pair_unchecked(static_cast<std::int32_t>(a), post_of_[a]);
  });
  ws.round(n_a);
  ex.parallel_for(n_ext, [&](std::size_t v) {
    if (switches[v] != 0) {
      out.set_pair_unchecked(out_applicant_[v], pf_.next[v]);
    }
  });
  ws.round(n_ext);
  out.rebuild_inverse_and_size();
  return out;
}

matching::Matching SwitchingEngine::apply_best(std::span<const std::int64_t> post_value,
                                               pram::Workspace& ws) const {
  const auto report = margins(post_value, ws);
  const auto choices = best_choices(report, ws);
  return apply(choices, ws);
}

SwitchingEngine::Menu SwitchingEngine::menu() const {
  const std::size_t n_ext = pf_.size();
  Menu menu;
  // Counting sort by component label: number the components in the order of
  // their first edge-bearing vertex and count each one's path starts ...
  std::vector<std::int32_t> slot(n_ext, kNone);  // per label: index into entries
  for (std::size_t v = 0; v < n_ext; ++v) {
    if (out_applicant_[v] == kNone) continue;  // only components with edges
    const auto comp = static_cast<std::size_t>(cycles_.component[v]);
    if (slot[comp] == kNone) {
      slot[comp] = static_cast<std::int32_t>(menu.entries.size());
      menu.entries.push_back({kNone, 0, 0});
    }
    auto& entry = menu.entries[static_cast<std::size_t>(slot[comp])];
    if (cycles_.on_cycle[v] != 0 && cycles_.cycle_root[v] == static_cast<std::int32_t>(v)) {
      entry.cycle_root = static_cast<std::int32_t>(v);
    } else if (is_s_post_[v] != 0 && has_cycle_[comp] == 0) {
      ++entry.starts_end;
    }
  }
  // ... then turn the counts into offsets and place the starts, ascending.
  std::uint32_t offset = 0;
  for (auto& entry : menu.entries) {
    entry.starts_begin = offset;
    offset += entry.starts_end;
    entry.starts_end = entry.starts_begin;
  }
  menu.starts.resize(offset);
  for (std::size_t v = 0; v < n_ext; ++v) {
    if (out_applicant_[v] == kNone || is_s_post_[v] == 0) continue;
    const auto comp = static_cast<std::size_t>(cycles_.component[v]);
    if (has_cycle_[comp] != 0) continue;
    auto& entry = menu.entries[static_cast<std::size_t>(slot[comp])];
    menu.starts[entry.starts_end++] = static_cast<std::int32_t>(v);
  }
  return menu;
}

std::optional<std::uint64_t> count_popular_matchings(const Instance& inst, pram::Workspace& ws) {
  const auto seed = find_popular_matching(inst, ws);
  if (!seed.has_value()) return std::nullopt;
  return count_popular_matchings(inst, *seed, ws);
}

std::uint64_t count_popular_matchings(const Instance& inst, const matching::Matching& popular,
                                      pram::NcCounters* counters, pram::Executor& ex) {
  pram::Workspace ws(ex);
  const std::uint64_t count = count_popular_matchings(inst, popular, ws);
  if (counters != nullptr) {
    counters->rounds += ws.counters().rounds;
    counters->work += ws.counters().work;
  }
  return count;
}

std::uint64_t count_popular_matchings(const Instance& inst, const matching::Matching& popular,
                                      pram::Workspace& ws) {
  const ReducedGraph rg = build_reduced_graph(inst, ws);
  const SwitchingEngine engine(inst, rg, popular, ws);
  const auto menu = engine.menu();
  std::uint64_t count = 1;
  for (const auto& entry : menu.entries) {
    const std::uint64_t factor = entry.cycle_root != kNone ? 2 : 1 + menu.starts_of(entry).size();
    count = count > std::numeric_limits<std::uint64_t>::max() / factor
                ? std::numeric_limits<std::uint64_t>::max()
                : count * factor;
  }
  return count;
}

std::vector<matching::Matching> all_popular_matchings_via_switching(const Instance& inst,
                                                                    const ReducedGraph& rg,
                                                                    const matching::Matching& m,
                                                                    pram::Workspace& ws) {
  const SwitchingEngine engine(inst, rg, m, ws);
  const auto menu = engine.menu();

  // Per component: no switch, the cycle, or one path (Theorem 9).
  std::vector<matching::Matching> result;
  std::vector<SwitchingEngine::Choice> current;
  const std::function<void(std::size_t)> recurse = [&](std::size_t i) {
    if (i == menu.entries.size()) {
      result.push_back(engine.apply(current, ws));
      return;
    }
    const auto with = [&](SwitchingEngine::Choice c) {
      current.push_back(c);
      recurse(i + 1);
      current.pop_back();
    };
    const auto& entry = menu.entries[i];
    recurse(i + 1);
    if (entry.cycle_root != kNone) with({entry.cycle_root, true});
    for (const auto q : menu.starts_of(entry)) with({q, false});
  };
  recurse(0);
  return result;
}

}  // namespace ncpm::core
