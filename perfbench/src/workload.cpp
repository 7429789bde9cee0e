#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/max_card_popular.hpp"
#include "core/optimal_popular.hpp"
#include "core/popular_matching.hpp"
#include "core/reduced_graph.hpp"
#include "core/switching_graph.hpp"
#include "core/ties.hpp"
#include "core/verify.hpp"
#include "gen/generators.hpp"
#include "gen/io_binary.hpp"
#include "gen/stable_generators.hpp"
#include "pram/executor.hpp"
#include "pram/workspace.hpp"
#include "stable/gale_shapley.hpp"
#include "stable/next_stable.hpp"

namespace perfbench {

using ncpm::engine::Mode;

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xorshift128+ seeded through splitmix64: small, fast, reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    s0_ = splitmix(x);
    s1_ = splitmix(x);
  }
  std::uint64_t next() {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }  ///< [0, 1)
  std::int32_t range(std::int32_t lo, std::int32_t hi) {  ///< [lo, hi]
    return lo + static_cast<std::int32_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s0_ = 0;
  std::uint64_t s1_ = 0;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next() % i]);
  }
}

std::vector<std::int32_t> permutation(std::int32_t n, Rng& rng) {
  std::vector<std::int32_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  shuffle(p, rng);
  return p;
}

/// Same strict instance under a seeded renaming of applicants and posts, so
/// that even the deterministic families differ from seed to seed.
ncpm::core::Instance relabel(const ncpm::core::Instance& in, Rng& rng) {
  const auto post_perm = permutation(in.num_posts(), rng);
  const auto order = permutation(in.num_applicants(), rng);
  std::vector<std::vector<std::int32_t>> lists(order.size());
  for (std::size_t a = 0; a < order.size(); ++a) {
    const auto src = in.posts_of(order[a]);
    auto& list = lists[a];
    list.reserve(src.size());
    for (const auto p : src) list.push_back(post_perm[static_cast<std::size_t>(p)]);
  }
  return ncpm::core::Instance::strict(in.num_posts(), std::move(lists));
}

ncpm::stable::StableInstance relabel(const ncpm::stable::StableInstance& in, Rng& rng) {
  const auto n = in.size();
  const auto men = permutation(n, rng);
  const auto women = permutation(n, rng);
  std::vector<std::vector<std::int32_t>> mp(static_cast<std::size_t>(n));
  std::vector<std::vector<std::int32_t>> wp(static_cast<std::size_t>(n));
  for (std::int32_t m = 0; m < n; ++m) {
    auto& list = mp[static_cast<std::size_t>(men[static_cast<std::size_t>(m)])];
    for (const auto w : in.man_prefs(m)) list.push_back(women[static_cast<std::size_t>(w)]);
  }
  for (std::int32_t w = 0; w < n; ++w) {
    auto& list = wp[static_cast<std::size_t>(women[static_cast<std::size_t>(w)])];
    for (const auto m : in.woman_prefs(w)) list.push_back(men[static_cast<std::size_t>(m)]);
  }
  return ncpm::stable::StableInstance::from_lists(std::move(mp), std::move(wp));
}

ncpm::core::Instance planted(std::int32_t n, double contention, std::uint64_t seed) {
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = n;
  cfg.num_posts = 2 * n + 16;
  cfg.contention = contention;
  cfg.all_f_fraction = 0.1;
  cfg.seed = seed;
  return ncpm::gen::solvable_strict_instance(cfg);
}

ncpm::core::Instance zipf(std::int32_t n, std::uint64_t seed) {
  ncpm::gen::StrictConfig cfg;
  cfg.num_applicants = n;
  cfg.num_posts = n;
  cfg.zipf_s = 1.5;
  cfg.seed = seed;
  return ncpm::gen::random_strict_instance(cfg);
}

/// rpc-small: many small strict requests over a served mode mix.
void build_rpc_small(Workload& w, Rng& rng) {
  constexpr std::size_t kSlots = 512;
  struct Share {
    Mode mode;
    double weight;
  };
  constexpr Share kMix[] = {{Mode::kSolve, 0.50}, {Mode::kMaxCard, 0.20}, {Mode::kCheck, 0.10},
                            {Mode::kCount, 0.10}, {Mode::kFair, 0.05},    {Mode::kRankMaximal, 0.05}};
  for (std::size_t s = 0; s < kSlots; ++s) {
    const auto n = rng.range(50, 500);
    const double kind = rng.uniform();
    Mode mode = Mode::kSolve;
    if (kind < 0.10) {
      ncpm::gen::TiesConfig cfg;
      cfg.num_applicants = n;
      cfg.num_posts = 2 * n;
      cfg.seed = rng.next();
      w.instances.push_back(ncpm::gen::random_ties_instance(cfg));
    } else {
      if (kind < 0.15) {
        w.instances.push_back(relabel(ncpm::gen::contention_instance(n), rng));
      } else if (kind < 0.20) {
        w.instances.push_back(zipf(n, rng.next()));
      } else {
        w.instances.push_back(planted(n, 1.0 + 2.0 * rng.uniform(), rng.next()));
      }
      double u = rng.uniform();
      for (const auto& share : kMix) {
        mode = share.mode;
        if (u < share.weight) break;
        u -= share.weight;
      }
    }
    w.slots.push_back({mode, w.instances.size() - 1});
  }
  w.sequence.resize(1 << 16);
  for (auto& s : w.sequence) s = static_cast<std::uint32_t>(rng.next() % kSlots);
}

/// solve-large: alternate solve and max-card over a few large instances.
/// Depth 17 appears twice (two relabelings) so that the latency median and
/// p90 fall inside clusters of similar requests, not in a gap between them.
void build_solve_large(Workload& w, Rng& rng) {
  const auto tree17 = ncpm::gen::binary_tree_instance(17);
  w.instances.push_back(relabel(ncpm::gen::binary_tree_instance(16), rng));
  w.instances.push_back(relabel(tree17, rng));
  w.instances.push_back(relabel(tree17, rng));
  w.instances.push_back(planted(1 << 17, 3.0, rng.next()));
  w.instances.push_back(zipf(1 << 16, rng.next()));
  // Every instance solved, then maximised. The order of one cycle is fixed,
  // so a window of whole cycles holds the same mix of requests under every
  // seed; the seed changes the instances, not the schedule.
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    w.slots.push_back({Mode::kSolve, i});
    w.slots.push_back({Mode::kMaxCard, i});
  }
  w.sequence.resize(w.slots.size());
  std::iota(w.sequence.begin(), w.sequence.end(), 0u);
}

/// modes-mid: the switching-graph modes and next-stable on mid-size inputs.
/// Two 2^12 instances to each 2^13 one put the latency median among the
/// 2^12 requests and p90 among the 2^13 ones, each well inside its cluster;
/// several instances of each size average out how much one seeded instance
/// costs.
void build_modes_mid(Workload& w, Rng& rng) {
  for (const std::int32_t n : {1 << 12, 1 << 13, 1 << 12, 1 << 12, 1 << 13, 1 << 12}) {
    w.instances.push_back(planted(n, 2.0, rng.next()));
  }
  for (std::size_t i = 0; i < w.instances.size(); ++i) {
    for (const auto mode : {Mode::kCount, Mode::kCheck, Mode::kFair, Mode::kRankMaximal}) {
      w.slots.push_back({mode, i});
    }
  }
  for (const std::int32_t n : {1024, 2048}) {
    w.stable_instances.push_back(ncpm::gen::random_stable_instance(n, rng.next()));
    w.stable_instances.push_back(relabel(ncpm::gen::cyclic_stable_instance(n), rng));
  }
  for (std::size_t i = 0; i < w.stable_instances.size(); ++i) {
    w.slots.push_back({Mode::kNextStable, i});
  }
  // A fixed cycle that takes one slot from each group of four in turn
  // (instances in build order, the stable group in the middle), so any seven
  // consecutive requests carry four 2^12, two 2^13 and one next-stable.
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (const std::uint32_t group : {0u, 4u, 8u, 24u, 12u, 16u, 20u}) {
      w.sequence.push_back(group + k);
    }
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 8);
}

std::string canonical_check(const ncpm::engine::CheckReport& r) {
  std::string out = "K";
  put_u64(out, static_cast<std::uint64_t>(r.applicants));
  put_u64(out, static_cast<std::uint64_t>(r.posts));
  out.push_back(r.strict ? '1' : '0');
  out.push_back(r.admits_popular ? '1' : '0');
  put_u64(out, r.size);
  out.push_back(r.count.has_value() ? '1' : '0');
  put_u64(out, r.count.value_or(0));
  return out;
}

std::string canonical_next_stable(const ncpm::stable::NextStableResult& r) {
  std::string out = "S";
  out.push_back(r.is_woman_optimal ? '1' : '0');
  put_u64(out, r.rotations.size());
  for (const auto& rho : r.rotations) {
    put_u64(out, rho.pairs.size());
    for (const auto& [m, wo] : rho.pairs) {
      put_u64(out, static_cast<std::uint64_t>(m));
      put_u64(out, static_cast<std::uint64_t>(wo));
    }
  }
  put_u64(out, r.successors.size());
  for (const auto& m : r.successors) {
    for (const auto wife : m.wife_of) put_u64(out, static_cast<std::uint64_t>(wife));
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rpc-small", "solve-large", "modes-mid"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  // The name is folded into the stream so workloads never share inputs.
  Rng rng(seed ^ hash_bytes(name));
  if (name == "rpc-small") {
    build_rpc_small(w, rng);
  } else if (name == "solve-large") {
    build_solve_large(w, rng);
  } else if (name == "modes-mid") {
    build_modes_mid(w, rng);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t hash_bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ size;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  for (; i < size; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h ^ (h >> 32);
}

std::string canonical(const ncpm::matching::Matching& m) {
  auto out = ncpm::io::encode_matching_payload(m);
  out.insert(out.begin(), 'M');
  return out;
}

std::string canonical(const ncpm::engine::Result& r) {
  if (r.mode == Mode::kCheck && r.check.has_value() &&
      (r.status == ncpm::engine::Status::kOk || r.status == ncpm::engine::Status::kNoSolution)) {
    return canonical_check(*r.check);
  }
  if (r.status == ncpm::engine::Status::kNoSolution) return "N";
  if (r.status != ncpm::engine::Status::kOk) return {};
  if (r.matching.has_value()) return canonical(*r.matching);
  if (r.count.has_value()) {
    std::string out = "C";
    put_u64(out, *r.count);
    return out;
  }
  if (r.next_stable.has_value()) return canonical_next_stable(*r.next_stable);
  return {};
}

std::optional<std::string> canonical(const ncpm::net::ResponseFrame& f) {
  using ncpm::net::RpcStatus;
  if (f.check.has_value() && (f.status == RpcStatus::kOk || f.status == RpcStatus::kNoSolution)) {
    return canonical_check(*f.check);
  }
  if (f.status == RpcStatus::kNoSolution) return std::string("N");
  if (f.status != RpcStatus::kOk) return std::nullopt;
  if (f.matching.has_value()) return canonical(*f.matching);
  if (f.count.has_value()) {
    std::string out = "C";
    put_u64(out, *f.count);
    return out;
  }
  return std::nullopt;
}

ncpm::engine::Request make_request(const Workload& w, std::size_t slot) {
  const auto& s = w.slots[slot];
  if (s.mode == Mode::kNextStable) {
    return ncpm::engine::Request::next_stable(w.stable_instances[s.instance]);
  }
  return ncpm::engine::Request::popular(s.mode, w.instances[s.instance]);
}

std::vector<Reference> compute_references(const Workload& w, int threads) {
  std::vector<Reference> refs(w.slots.size());
  std::atomic<std::size_t> cursor{0};  // next slot to compute, shared by the threads
  auto work = [&] {
    ncpm::pram::Executor ex(1);
    ncpm::pram::Workspace ws(ex);
    for (std::size_t i = cursor++; i < w.slots.size(); i = cursor++) {
      const auto& s = w.slots[i];
      ncpm::engine::Result r;
      r.mode = s.mode;
      r.status = ncpm::engine::Status::kNoSolution;
      if (s.mode == Mode::kNextStable) {
        const auto& inst = w.stable_instances[s.instance];
        r.next_stable =
            ncpm::stable::next_stable_matchings(inst, ncpm::stable::man_optimal(inst), nullptr, ex);
        r.status = ncpm::engine::Status::kOk;
        refs[i].bytes = canonical(r);
        continue;
      }
      const auto& inst = w.instances[s.instance];
      std::optional<ncpm::matching::Matching> m;
      switch (s.mode) {
        case Mode::kSolve:
          m = inst.strict_prefs() ? ncpm::core::find_popular_matching(inst, ws)
                                  : ncpm::core::find_popular_matching_ties(inst);
          break;
        case Mode::kMaxCard: m = ncpm::core::find_max_card_popular(inst, ws); break;
        case Mode::kFair: m = ncpm::core::find_fair_popular(inst, ws); break;
        case Mode::kRankMaximal: m = ncpm::core::find_rank_maximal_popular(inst, ws); break;
        case Mode::kCount: r.count = ncpm::core::count_popular_matchings(inst, ws); break;
        case Mode::kCheck: {
          ncpm::engine::CheckReport report;
          report.applicants = inst.num_applicants();
          report.posts = inst.num_posts();
          report.strict = inst.strict_prefs();
          const auto popular = ncpm::core::find_popular_matching(inst, ws);
          report.admits_popular = popular.has_value();
          if (popular.has_value()) {
            report.size = ncpm::core::matching_size(inst, *popular);
            report.count = ncpm::core::count_popular_matchings(inst, *popular, nullptr, ex);
          }
          r.check = report;
          break;
        }
        case Mode::kNextStable: break;
      }
      if (m.has_value()) {
        r.matching = std::move(m);
        r.status = ncpm::engine::Status::kOk;
      }
      if (r.count.has_value()) r.status = ncpm::engine::Status::kOk;
      refs[i].bytes = canonical(r);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
  return refs;
}

std::string check_output(const Workload& w, std::size_t slot, const Reference& ref,
                         const std::string& output) {
  const auto& s = w.slots[slot];
  if (output.empty()) return "no canonical output (failed status)";
  if (s.mode != Mode::kSolve) {
    return output == ref.bytes ? std::string() : "output differs from the 1-lane reference";
  }
  // Solve: any popular matching is correct, so check it, not its bytes.
  if (output == "N" || ref.bytes == "N") {
    return output == ref.bytes ? std::string() : "existence disagrees with the reference";
  }
  if (output[0] != 'M') return "solve output is not a matching";
  const auto& inst = w.instances[s.instance];
  ncpm::matching::Matching m;
  try {
    m = ncpm::io::decode_matching_payload(reinterpret_cast<const std::uint8_t*>(output.data()) + 1,
                                          output.size() - 1);
  } catch (const std::exception& e) {
    return std::string("undecodable matching: ") + e.what();
  }
  if (m.n_left() != inst.num_applicants() || m.n_right() != inst.total_posts() ||
      !ncpm::core::is_valid_assignment(inst, m)) {
    return "matching is not a valid assignment";
  }
  bool popular = false;
  if (inst.strict_prefs()) {
    ncpm::pram::Executor ex(1);
    const auto rg = ncpm::core::build_reduced_graph(inst, nullptr, ex);
    popular = ncpm::core::satisfies_popular_characterization(inst, rg, m);
  } else {
    popular = ncpm::core::satisfies_ties_characterization(inst, m);
  }
  return popular ? std::string() : "matching fails the popular-matching characterization";
}

}  // namespace perfbench
