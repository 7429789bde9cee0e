#include "support/popular_oracle.hpp"

#include <limits>
#include <stdexcept>

#include "core/verify.hpp"

namespace ncpm::test {

namespace {

using core::Instance;
using core::kNone;
using core::kNoRank;

void enumerate_assignments(const Instance& inst, std::int32_t a,
                           std::vector<std::int32_t>& post_of, std::vector<std::uint8_t>& used,
                           const std::function<void(const std::vector<std::int32_t>&)>& visit) {
  if (a == inst.num_applicants()) {
    visit(post_of);
    return;
  }
  const auto try_post = [&](std::int32_t p) {
    if (used[static_cast<std::size_t>(p)] != 0) return;
    used[static_cast<std::size_t>(p)] = 1;
    post_of[static_cast<std::size_t>(a)] = p;
    enumerate_assignments(inst, a + 1, post_of, used, visit);
    post_of[static_cast<std::size_t>(a)] = kNone;
    used[static_cast<std::size_t>(p)] = 0;
  };
  for (const auto p : inst.posts_of(a)) try_post(p);
  if (inst.has_last_resorts()) {
    try_post(inst.last_resort(a));  // always free: unique to a
  } else {
    enumerate_assignments(inst, a + 1, post_of, used, visit);  // leave a unmatched
  }
}

/// +1 / 0 / -1 as a prefers rank r1 to r2, is indifferent, or prefers r2.
std::int64_t vote(std::int32_t r1, std::int32_t r2) { return (r1 < r2) - (r2 < r1); }

/// Weight of a cell with no edge (an unacceptable post).
constexpr std::int64_t kMissing = std::numeric_limits<std::int64_t>::min();

/// Maximum total weight of an assignment of every row to a distinct column
/// (rows <= cols, weights in {-1, 0, 1} or kMissing, and a perfect
/// assignment must exist that avoids kMissing), by the O(rows^2 * cols)
/// Hungarian method with potentials on costs -w.
std::int64_t max_weight_assignment(const std::vector<std::vector<std::int64_t>>& w,
                                   std::size_t cols) {
  const std::size_t rows = w.size();
  // A missing cell costs more than any assignment of real cells can gain
  // back (|w| <= 1 per row), so the optimum never uses one.
  const std::int64_t missing_cost = 4 * static_cast<std::int64_t>(rows) + 4;
  const auto cost = [&](std::size_t i, std::size_t j) {
    return w[i][j] == kMissing ? missing_cost : -w[i][j];
  };
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  // 1-based rows and columns; column 0 is the virtual start of each search.
  std::vector<std::int64_t> u(rows + 1, 0), v(cols + 1, 0);
  std::vector<std::size_t> row_of(cols + 1, 0), way(cols + 1, 0);
  for (std::size_t i = 1; i <= rows; ++i) {
    row_of[0] = i;
    std::size_t j0 = 0;
    std::vector<std::int64_t> minv(cols + 1, kInf);
    std::vector<std::uint8_t> used(cols + 1, 0);
    do {
      used[j0] = 1;
      const std::size_t i0 = row_of[j0];
      std::int64_t delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= cols; ++j) {
        if (used[j] != 0) continue;
        const std::int64_t cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= cols; ++j) {
        if (used[j] != 0) {
          u[row_of[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (row_of[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      row_of[j0] = row_of[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  std::int64_t total = 0;
  for (std::size_t j = 1; j <= cols; ++j) {
    if (row_of[j] == 0) continue;
    const std::int64_t weight = w[row_of[j] - 1][j - 1];
    if (weight == kMissing) {
      throw std::logic_error("max_weight_assignment: every perfect assignment uses a missing cell");
    }
    total += weight;
  }
  return total;
}

}  // namespace

void for_each_assignment(const Instance& inst,
                         const std::function<void(const std::vector<std::int32_t>&)>& visit) {
  std::vector<std::int32_t> post_of(static_cast<std::size_t>(inst.num_applicants()), kNone);
  std::vector<std::uint8_t> used(static_cast<std::size_t>(inst.total_posts()), 0);
  enumerate_assignments(inst, 0, post_of, used, visit);
}

matching::Matching assignment_to_matching(const Instance& inst,
                                          const std::vector<std::int32_t>& post_of) {
  matching::Matching m(inst.num_applicants(), inst.total_posts());
  for (std::size_t a = 0; a < post_of.size(); ++a) {
    if (post_of[a] != kNone) m.match(static_cast<std::int32_t>(a), post_of[a]);
  }
  return m;
}

std::int64_t unpopularity_margin(const Instance& inst, const matching::Matching& m) {
  if (!core::is_valid_assignment(inst, m)) {
    throw std::invalid_argument("unpopularity_margin: not a valid assignment");
  }
  const auto n = static_cast<std::size_t>(inst.num_applicants());
  const auto posts = static_cast<std::size_t>(inst.total_posts());
  // Columns: every extended post (last resorts included), then, without
  // last resorts, one private "unmatched" column per applicant.
  const std::size_t cols = inst.has_last_resorts() ? posts : posts + n;
  std::vector<std::vector<std::int64_t>> w(n, std::vector<std::int64_t>(cols, kMissing));
  for (std::size_t a = 0; a < n; ++a) {
    const auto ai = static_cast<std::int32_t>(a);
    const std::int32_t current = inst.rank_of(ai, m.right_of(ai));
    for (std::size_t p = 0; p < posts; ++p) {
      const std::int32_t r = inst.rank_of(ai, static_cast<std::int32_t>(p));
      if (r != kNoRank) w[a][p] = vote(r, current);
    }
    if (!inst.has_last_resorts()) w[a][posts + a] = vote(kNoRank, current);
  }
  return max_weight_assignment(w, cols);
}

std::int64_t popularity_votes(const Instance& inst, const matching::Matching& m1,
                              const matching::Matching& m2) {
  std::int64_t votes = 0;
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const std::int32_t p1 = m1.right_of(a);
    const std::int32_t p2 = m2.right_of(a);
    if (inst.prefers(a, p1, p2)) {
      ++votes;
    } else if (inst.prefers(a, p2, p1)) {
      --votes;
    }
  }
  return votes;
}

bool is_popular(const Instance& inst, const matching::Matching& m) {
  return core::is_valid_assignment(inst, m) && unpopularity_margin(inst, m) <= 0;
}

bool is_popular_bruteforce(const Instance& inst, const matching::Matching& m) {
  if (!core::is_valid_assignment(inst, m)) return false;
  bool popular = true;
  for_each_assignment(inst, [&](const std::vector<std::int32_t>& post_of) {
    if (!popular) return;
    if (popularity_votes(inst, assignment_to_matching(inst, post_of), m) > 0) popular = false;
  });
  return popular;
}

std::vector<matching::Matching> all_popular_matchings_bruteforce(const Instance& inst) {
  std::vector<matching::Matching> result;
  for_each_assignment(inst, [&](const std::vector<std::int32_t>& post_of) {
    matching::Matching candidate = assignment_to_matching(inst, post_of);
    if (is_popular(inst, candidate)) result.push_back(std::move(candidate));
  });
  return result;
}

}  // namespace ncpm::test
