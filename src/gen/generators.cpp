#include "gen/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>
#include <unordered_set>

namespace ncpm::gen {

namespace {

/// Draw `count` distinct posts by the (possibly skewed) popularity weights.
std::vector<std::int32_t> sample_distinct(std::mt19937_64& rng, std::int32_t num_posts,
                                          std::int32_t count,
                                          const std::vector<double>& cumulative) {
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(count));
  std::unordered_set<std::int32_t> seen;
  seen.reserve(static_cast<std::size_t>(count));
  std::uniform_real_distribution<double> unif(0.0, cumulative.back());
  while (static_cast<std::int32_t>(out.size()) < count) {
    std::int32_t p;
    if (cumulative.size() == 1) {
      p = 0;
    } else {
      const double x = unif(rng);
      p = static_cast<std::int32_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), x) - cumulative.begin());
      p = std::min(p, num_posts - 1);
    }
    if (seen.insert(p).second) out.push_back(p);
  }
  return out;
}

std::vector<double> popularity_cdf(std::int32_t num_posts, double zipf_s) {
  std::vector<double> cdf(static_cast<std::size_t>(num_posts));
  double acc = 0.0;
  for (std::int32_t p = 0; p < num_posts; ++p) {
    acc += zipf_s == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(p) + 1.0, zipf_s);
    cdf[static_cast<std::size_t>(p)] = acc;
  }
  return cdf;
}

}  // namespace

core::Instance random_strict_instance(const StrictConfig& cfg) {
  if (cfg.list_min < 1 || cfg.list_max < cfg.list_min || cfg.list_max > cfg.num_posts) {
    throw std::invalid_argument("random_strict_instance: bad list-length bounds");
  }
  std::mt19937_64 rng(cfg.seed);
  const auto cdf = popularity_cdf(cfg.num_posts, cfg.zipf_s);
  std::uniform_int_distribution<std::int32_t> len_dist(cfg.list_min, cfg.list_max);
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(cfg.num_applicants));
  for (auto& list : lists) {
    list = sample_distinct(rng, cfg.num_posts, len_dist(rng), cdf);
  }
  return core::Instance::strict(cfg.num_posts, std::move(lists));
}

core::Instance solvable_strict_instance(const SolvableConfig& cfg) {
  if (cfg.list_min < 2 || cfg.list_max < cfg.list_min || cfg.list_max > cfg.num_posts) {
    throw std::invalid_argument("solvable_strict_instance: bad list-length bounds");
  }
  if (cfg.contention < 1.0) {
    throw std::invalid_argument("solvable_strict_instance: contention must be >= 1");
  }
  const auto n_a = static_cast<std::size_t>(cfg.num_applicants);
  if (n_a == 0) return core::Instance::strict(cfg.num_posts, {});
  const auto n_groups = static_cast<std::size_t>(std::max<double>(
      1.0, static_cast<double>(cfg.num_applicants) / cfg.contention));
  if (static_cast<std::size_t>(cfg.num_posts) < n_a + n_groups) {
    throw std::invalid_argument(
        "solvable_strict_instance: needs num_posts >= num_applicants + num_applicants/contention");
  }
  std::mt19937_64 rng(cfg.seed);

  // Disjoint pools: group posts perm[0..n_groups) carry the (shared) first
  // choices; perm[n_groups..n_groups+n_a) are dedicated s-targets, one per
  // applicant, which plants the applicant-complete matching a -> s(a).
  std::vector<std::int32_t> perm(static_cast<std::size_t>(cfg.num_posts));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);

  std::uniform_int_distribution<std::size_t> group_pick(0, n_groups - 1);
  std::vector<std::size_t> group(n_a);
  std::vector<std::uint8_t> group_used(n_groups, 0);
  for (std::size_t a = 0; a < n_a; ++a) {
    group[a] = group_pick(rng);
    group_used[group[a]] = 1;
  }
  // Only posts that are someone's first choice are f-posts; contention
  // filler must come from this used set, or it would silently become s(a).
  std::vector<std::int32_t> used_groups;
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (group_used[g] != 0) used_groups.push_back(static_cast<std::int32_t>(g));
  }
  std::uniform_int_distribution<std::size_t> used_pick(0, used_groups.size() - 1);

  std::uniform_int_distribution<std::int32_t> len_dist(cfg.list_min, cfg.list_max);
  std::uniform_real_distribution<double> unif01(0.0, 1.0);
  std::uniform_int_distribution<std::int32_t> any_post(0, cfg.num_posts - 1);

  std::vector<std::vector<std::int32_t>> lists(n_a);
  for (std::size_t a = 0; a < n_a; ++a) {
    const std::int32_t len = len_dist(rng);
    const std::int32_t f = perm[group[a]];
    std::vector<std::int32_t> list;
    list.reserve(static_cast<std::size_t>(len) + 1);
    list.push_back(f);
    std::unordered_set<std::int32_t> seen{f};
    const bool all_f = unif01(rng) < cfg.all_f_fraction;
    if (!all_f) {
      // A few f-post fillers above the planted s-target, then the target,
      // then an arbitrary tail. Fillers are f-posts, so s(a) stays planted.
      const std::int32_t fillers = static_cast<std::int32_t>(rng() % 3);
      for (std::int32_t i = 0; i < fillers && static_cast<std::int32_t>(list.size()) + 1 < len;
           ++i) {
        const std::int32_t p = perm[static_cast<std::size_t>(used_groups[used_pick(rng)])];
        if (seen.insert(p).second) list.push_back(p);
      }
      const std::int32_t s_target = perm[n_groups + a];
      seen.insert(s_target);
      list.push_back(s_target);
      while (static_cast<std::int32_t>(list.size()) < len) {
        const std::int32_t p = any_post(rng);
        if (seen.insert(p).second) list.push_back(p);
      }
    } else {
      // Entire list inside the f-posts: s(a) = l(a), an A1 applicant.
      while (static_cast<std::int32_t>(list.size()) < len &&
             static_cast<std::size_t>(list.size()) < used_groups.size()) {
        const std::int32_t p = perm[static_cast<std::size_t>(used_groups[used_pick(rng)])];
        if (seen.insert(p).second) list.push_back(p);
      }
    }
    lists[a] = std::move(list);
  }
  return core::Instance::strict(cfg.num_posts, std::move(lists));
}

core::Instance contention_instance(std::int32_t n_applicants) {
  if (n_applicants < 3) throw std::invalid_argument("contention_instance: needs n >= 3");
  // Everyone: first choice post 0, second choice post 1. f = {0}, s = {1};
  // G' is K_{n,2}, which cannot be applicant-complete for n >= 3.
  std::vector<std::vector<std::int32_t>> lists(static_cast<std::size_t>(n_applicants), {0, 1});
  return core::Instance::strict(2, std::move(lists));
}

core::Instance binary_tree_instance(std::int32_t depth) {
  if (depth < 1) throw std::invalid_argument("binary_tree_instance: needs depth >= 1");
  // Posts are the nodes of a complete binary tree (heap indexing, root 0);
  // applicant a_v spans the edge {v, parent(v)} for every non-root node v.
  // Nodes at even depth are f-posts (listed first by their applicants),
  // nodes at odd depth are s-posts, so each applicant has one of each and
  // the reduced graph is exactly the tree.
  const std::int32_t num_posts = (1 << (depth + 1)) - 1;
  std::vector<std::vector<std::int32_t>> lists;
  lists.reserve(static_cast<std::size_t>(num_posts) - 1);
  const auto depth_of = [](std::int32_t v) {
    std::int32_t d = 0;
    while (v > 0) {
      v = (v - 1) / 2;
      ++d;
    }
    return d;
  };
  for (std::int32_t v = 1; v < num_posts; ++v) {
    const std::int32_t parent = (v - 1) / 2;
    if (depth_of(v) % 2 == 0) {
      lists.push_back({v, parent});
    } else {
      lists.push_back({parent, v});
    }
  }
  return core::Instance::strict(num_posts, std::move(lists));
}

core::Instance random_ties_instance(const TiesConfig& cfg) {
  if (cfg.list_min < 1 || cfg.list_max < cfg.list_min || cfg.list_max > cfg.num_posts) {
    throw std::invalid_argument("random_ties_instance: bad list-length bounds");
  }
  std::mt19937_64 rng(cfg.seed);
  const auto cdf = popularity_cdf(cfg.num_posts, 0.0);
  std::uniform_int_distribution<std::int32_t> len_dist(cfg.list_min, cfg.list_max);
  std::uniform_real_distribution<double> unif01(0.0, 1.0);
  std::vector<std::size_t> offsets{0};
  offsets.reserve(static_cast<std::size_t>(cfg.num_applicants) + 1);
  std::vector<std::int32_t> posts;
  std::vector<std::int32_t> ranks;
  for (std::int32_t a = 0; a < cfg.num_applicants; ++a) {
    const auto flat = sample_distinct(rng, cfg.num_posts, len_dist(rng), cdf);
    std::int32_t rank = 0;
    for (std::size_t i = 0; i < flat.size(); ++i) {
      // Each entry after the first joins the previous tie with tie_prob.
      if (i == 0 || unif01(rng) >= cfg.tie_prob) ++rank;
      posts.push_back(flat[i]);
      ranks.push_back(rank);
    }
    offsets.push_back(posts.size());
  }
  return core::Instance::from_csr(cfg.num_posts, std::move(offsets), std::move(posts),
                                  std::move(ranks));
}

graph::BipartiteGraph random_bipartite(std::int32_t n_left, std::int32_t n_right,
                                       double avg_degree, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int32_t> right_dist(0, n_right - 1);
  std::poisson_distribution<std::int32_t> deg_dist(avg_degree);
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(static_cast<std::size_t>(
      static_cast<double>(n_left < 0 ? 0 : n_left) * (avg_degree + 1.0)));
  for (std::int32_t l = 0; l < n_left; ++l) {
    const std::int32_t deg = std::min(deg_dist(rng), n_right);
    std::unordered_set<std::int32_t> seen;
    while (static_cast<std::int32_t>(seen.size()) < deg) {
      const std::int32_t r = right_dist(rng);
      if (seen.insert(r).second) edges.emplace_back(l, r);
    }
  }
  return graph::BipartiteGraph(n_left, n_right, std::move(edges));
}

}  // namespace ncpm::gen
