#include "core/switching_graph.hpp"

#include "core/popular_matching.hpp"

#include <atomic>
#include <bit>
#include <limits>
#include <optional>
#include <stdexcept>

#include "pram/crcw.hpp"

namespace ncpm::core {

namespace {

inline void atomic_store_flag(std::uint8_t& slot) {
  std::atomic_ref<std::uint8_t>(slot).store(1, std::memory_order_relaxed);
}

/// A component maximum before any candidate has raised it; no margin (at
/// most n in magnitude) reaches it.
constexpr std::int64_t kNoCandidate = std::numeric_limits<std::int64_t>::min();

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
    broken_succ_[v] = pf_.is_sink(v) || is_cycle_root(v) ? static_cast<std::int32_t>(v) : pf_.next[v];
  });
  ws.round(n_ext);
  steps_ = pram::list_rank(broken_succ_, ws);

  // Binary-lifting tables for path marking: lift_[k][v] = broken_succ_^(2^k)(v).
  // apply() lifts by at most the longest step count, which bit_width(longest)
  // levels cover.
  const std::int64_t longest = ex.parallel_reduce(
      n_ext, std::int64_t{0}, [&](std::size_t v) { return steps_.rank[v]; },
      [](std::int64_t a, std::int64_t b) { return a > b ? a : b; });
  ws.round(n_ext);
  const auto levels = static_cast<std::size_t>(std::bit_width(static_cast<std::uint64_t>(longest)));
  lift_.resize(levels);
  for (std::size_t k = 0; k < levels; ++k) {
    lift_[k] = k == 0 ? broken_succ_ : pram::compose(lift_[k - 1], lift_[k - 1], ws);
  }
}

SwitchingEngine::Selector::Selector(const SwitchingEngine& engine, pram::Workspace& ws)
    : engine_(engine),
      state_(ws.take<std::uint8_t>(engine.pf_.size())),
      best_(ws.take<std::int64_t>(engine.pf_.size())),
      head_(ws.take<std::int32_t>(engine.pf_.size())),
      rank_(ws.take<std::int64_t>(engine.pf_.size())),
      reaches_(ws.take<std::uint8_t>(engine.pf_.size())) {
  const std::size_t n_ext = engine.pf_.size();
  ws.exec().parallel_for(n_ext, [&](std::size_t v) {
    state_[v] = engine_.is_cycle_root(v) || engine_.is_path_start(v) ? kTied : kOut;
    best_[v] = kNoCandidate;
  });
  ws.round(n_ext);
}

void SwitchingEngine::Selector::refine(std::span<const std::int64_t> vertex_delta,
                                       pram::Workspace& ws) {
  const std::size_t n_ext = engine_.pf_.size();
  pram::weighted_list_rank_into(engine_.broken_succ_, vertex_delta,
                                {head_.span(), rank_.span(), reaches_.span()}, ws);
  pram::Executor& ex = ws.exec();
  const auto comp = [&](std::size_t v) {
    return static_cast<std::size_t>(engine_.cycles_.component[v]);
  };
  // A path start's margin is its ranking sum. A cycle root is its ranking
  // terminal, so its cycle margin re-adds its own delta to its successor's.
  // The key's index rides in the high half so that this key's candidates
  // outrank whatever an earlier key left in best_ (deltas in {-1, 0, 1}
  // bound |margin| by n_ext < 2^31), and best_ needs no reset between keys.
  const std::int64_t key_base = key_++ * (std::int64_t{1} << 32) + (std::int64_t{1} << 31);
  const auto packed_margin = [&](std::size_t v) {
    return key_base + (engine_.is_cycle_root(v)
                           ? vertex_delta[v] + rank_[static_cast<std::size_t>(engine_.pf_.next[v])]
                           : rank_[v]);
  };
  ex.parallel_for(n_ext, [&](std::size_t v) {
    if (state_[v] != kOut) pram::crcw_max(best_[comp(v)], packed_margin(v));
  });
  ws.round(n_ext);
  // Keep the candidates on the maximum. Survivors have sat on every key's
  // maximum, so the first nonzero margin of any survivor is its component's
  // first nonzero maximum: it decides whether the component's winner beats
  // not switching at all.
  ex.parallel_for(n_ext, [&](std::size_t v) {
    if (state_[v] == kOut) return;
    const std::int64_t packed = packed_margin(v);
    if (packed != best_[comp(v)]) {
      state_[v] = kOut;
    } else if (state_[v] == kTied && packed != key_base) {
      state_[v] = packed > key_base ? kAhead : kBehind;
    }
  });
  ws.round(n_ext);
}

std::vector<SwitchingEngine::Choice> SwitchingEngine::Selector::choices(
    pram::Workspace& ws) const {
  const std::size_t n_ext = engine_.pf_.size();
  // Survivors share every key, so ties go to the smallest key.
  auto winner = ws.take<std::int32_t>(n_ext, std::numeric_limits<std::int32_t>::max());
  ws.exec().parallel_for(n_ext, [&](std::size_t v) {
    if (state_[v] != kOut) {
      pram::crcw_min(winner[static_cast<std::size_t>(engine_.cycles_.component[v])],
                     static_cast<std::int32_t>(v));
    }
  });
  ws.round(n_ext);
  std::vector<Choice> choices;
  for (std::size_t c = 0; c < n_ext; ++c) {
    const std::int32_t key = winner[c];
    if (key != std::numeric_limits<std::int32_t>::max() &&
        state_[static_cast<std::size_t>(key)] == kAhead) {
      choices.push_back({key, engine_.is_cycle_root(static_cast<std::size_t>(key))});
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
      if (!is_cycle_root(key)) {
        throw std::invalid_argument("SwitchingEngine::apply: cycle key is not a cycle root");
      }
      cycle_root_chosen[key] = 1;
    } else {
      if (!is_path_start(key)) {
        throw std::invalid_argument(
            "SwitchingEngine::apply: path start is not a matched s-post of a tree component");
      }
      const auto comp = static_cast<std::size_t>(cycles_.component[key]);
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
    if (is_cycle_root(v)) {
      entry.cycle_root = static_cast<std::int32_t>(v);
    } else if (is_path_start(v)) {
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
    if (!is_path_start(v)) continue;
    const auto comp = static_cast<std::size_t>(cycles_.component[v]);
    auto& entry = menu.entries[static_cast<std::size_t>(slot[comp])];
    menu.starts[entry.starts_end++] = static_cast<std::int32_t>(v);
  }
  return menu;
}

std::optional<std::uint64_t> count_popular_matchings(const Instance& inst, pram::Workspace& ws) {
  const ReducedGraph rg = build_reduced_graph(inst, ws);
  const auto seed = find_popular_matching(inst, rg, ws);
  if (!seed.has_value()) return std::nullopt;
  return count_popular_matchings(inst, rg, *seed, ws);
}

std::uint64_t count_popular_matchings(const Instance& inst, const matching::Matching& popular,
                                      pram::NcCounters* counters, pram::Executor& ex) {
  pram::Workspace ws(ex);
  const std::uint64_t count =
      count_popular_matchings(inst, build_reduced_graph(inst, ws), popular, ws);
  if (counters != nullptr) {
    counters->rounds += ws.counters().rounds;
    counters->work += ws.counters().work;
  }
  return count;
}

std::uint64_t count_popular_matchings(const Instance& inst, const ReducedGraph& rg,
                                      const matching::Matching& popular, pram::Workspace& ws) {
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

}  // namespace ncpm::core
