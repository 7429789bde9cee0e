#include "layers.hpp"

#include <algorithm>

#include "core/applicant_complete.hpp"
#include "core/max_card_popular.hpp"
#include "core/optimal_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "gen/io_binary.hpp"
#include "pram/executor.hpp"
#include "pram/workspace.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"

namespace perfbench {

namespace {

/// Times one call and records it as a root span of its own request.
class Timer {
 public:
  explicit Timer(Tracer& tracer) : tracer_(tracer) {}
  template <typename F>
  double ms(const char* name, F&& f) {
    const auto start = now_ns();
    f();
    const auto end = now_ns();
    ++request_;
    tracer_.span(request_ | (std::uint64_t{0xff} << 56), 0, name, start, end);
    return static_cast<double>(end - start) / 1e6;
  }

 private:
  Tracer& tracer_;
  std::uint64_t request_ = 0;
};

/// At most `cap` strict instances of the workload, spread over its pool.
std::vector<const ncpm::core::Instance*> strict_subset(const Workload& w, std::size_t cap) {
  std::vector<const ncpm::core::Instance*> all;
  for (const auto& inst : w.instances) {
    if (inst.strict_prefs()) all.push_back(&inst);
  }
  if (all.size() <= cap) return all;
  std::vector<const ncpm::core::Instance*> out;
  for (std::size_t i = 0; i < cap; ++i) out.push_back(all[i * all.size() / cap]);
  return out;
}

}  // namespace

Metrics direct_layers(const Workload& w, int lanes, int nproc, Tracer& tracer) {
  tracer.on = true;
  Timer timer(tracer);
  const bool quadratic_ok = w.name != "solve-large";  // count/fair at 2^17 take minutes
  const auto subset = strict_subset(w, 48);

  // gen: the ncpm-binary payload codec on the workload's own instances.
  std::vector<double> encode_us, decode_us;
  for (const auto& inst : w.instances) {
    std::string bytes;
    encode_us.push_back(1e3 * timer.ms("gen.encode", [&] {
      bytes = ncpm::io::encode_instance_payload(inst);
    }));
    decode_us.push_back(1e3 * timer.ms("gen.decode", [&] {
      (void)ncpm::io::decode_instance_payload(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                                              bytes.size());
    }));
  }

  // core: each stage of the pipeline as a separate call, on the executor
  // width the workload's engine would use.
  ncpm::pram::Executor ex(lanes);
  ncpm::pram::Workspace ws(ex);
  std::vector<double> rg_ms, ac_ms, sw_ms, mc_ms, count_ms, opt_ms;
  for (const auto* inst : subset) {
    ncpm::core::ReducedGraph rg;
    rg_ms.push_back(timer.ms("core.reduced_graph", [&] {
      rg = ncpm::core::build_reduced_graph(*inst, nullptr, ex);
    }));
    ac_ms.push_back(timer.ms("core.applicant_complete", [&] {
      (void)ncpm::core::applicant_complete_matching(*inst, rg, ws);
    }));
    std::optional<ncpm::matching::Matching> popular;
    const double solve = timer.ms("core.solve", [&] {
      popular = ncpm::core::find_popular_matching(*inst, ws);
    });
    if (!popular.has_value()) continue;
    sw_ms.push_back(timer.ms("core.switching", [&] {
      ncpm::core::SwitchingEngine engine(*inst, rg, *popular, nullptr, ex);
    }));
    mc_ms.push_back(timer.ms("core.max_card", [&] {
      (void)ncpm::core::maximize_cardinality(*inst, *popular, ws);
    }));
    if (!quadratic_ok) continue;
    count_ms.push_back(timer.ms("core.count", [&] {
      (void)ncpm::core::count_popular_matchings(*inst, *popular, nullptr, ex);
    }));
    opt_ms.push_back(timer.ms("core.fair", [&] { (void)ncpm::core::find_fair_popular(*inst, ws); }) -
                     solve);
    opt_ms.push_back(
        timer.ms("core.rank_maximal", [&] { (void)ncpm::core::find_rank_maximal_popular(*inst, ws); }) -
        solve);
  }

  // stable: Algorithm 4 from the man-optimal matching.
  std::vector<double> next_stable_ms;
  for (const auto& inst : w.stable_instances) {
    const auto m0 = ncpm::stable::man_optimal(inst);
    next_stable_ms.push_back(timer.ms("stable.next_stable", [&] {
      (void)ncpm::stable::next_stable_matchings(inst, m0, nullptr, ex);
    }));
  }

  // pram: one solve on 1 lane against nproc lanes, and bare round cost.
  ncpm::pram::Executor one(1);
  ncpm::pram::Executor wide(nproc);
  ncpm::pram::Workspace ws_one(one);
  ncpm::pram::Workspace ws_wide(wide);
  double t_one = 0, t_wide = 0;
  for (const auto* inst : strict_subset(w, 16)) {
    (void)ncpm::core::find_popular_matching(*inst, ws_one);  // warm both workspaces
    (void)ncpm::core::find_popular_matching(*inst, ws_wide);
    t_one += timer.ms("pram.solve_1_lane", [&] { (void)ncpm::core::find_popular_matching(*inst, ws_one); });
    t_wide += timer.ms("pram.solve_n_lanes", [&] { (void)ncpm::core::find_popular_matching(*inst, ws_wide); });
  }
  const auto round_us = [&](std::size_t items, int reps) {
    std::vector<std::uint32_t> sink(items);
    const double total = timer.ms("pram.rounds", [&] {
      for (int r = 0; r < reps; ++r) {
        wide.parallel_for(items, [&](std::size_t i) { sink[i] += static_cast<std::uint32_t>(r); });
      }
    });
    return 1e3 * total / reps;
  };

  tracer.on = false;
  return {
      {"gen.decode_us.p50", median(decode_us), "us"},
      {"gen.encode_us.p50", median(encode_us), "us"},
      {"core.reduced_graph_ms", median(rg_ms), "ms"},
      {"core.applicant_complete_ms", median(ac_ms), "ms"},
      {"core.switching_ms", median(sw_ms), "ms"},
      {"core.count_ms", median(count_ms), "ms"},
      {"core.max_card_ms", median(mc_ms), "ms"},
      {"core.optimize_ms", median(opt_ms), "ms"},
      {"stable.next_stable_ms.p50", median(next_stable_ms), "ms"},
      {"pram.lane_speedup", t_wide > 0 ? t_one / t_wide : 0.0, "ratio"},
      {"pram.round_us.1k", round_us(1024, 2000), "us"},
      {"pram.round_us.64k", round_us(65536, 200), "us"},
  };
}

}  // namespace perfbench
