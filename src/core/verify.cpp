#include "core/verify.hpp"

namespace ncpm::core {

bool is_valid_assignment(const Instance& inst, const matching::Matching& m) {
  if (m.n_left() != inst.num_applicants() || m.n_right() != inst.total_posts()) return false;
  std::vector<std::uint8_t> used(static_cast<std::size_t>(inst.total_posts()), 0);
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const std::int32_t p = m.right_of(a);
    if (p == matching::kNone) continue;
    if (inst.rank_of(a, p) == kNoRank) return false;
    if (used[static_cast<std::size_t>(p)] != 0) return false;
    used[static_cast<std::size_t>(p)] = 1;
  }
  return true;
}

bool is_applicant_complete(const Instance& inst, const matching::Matching& m) {
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    if (m.right_of(a) == matching::kNone) return false;
  }
  return true;
}

std::size_t matching_size(const Instance& inst, const matching::Matching& m) {
  std::size_t size = 0;
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const std::int32_t p = m.right_of(a);
    if (p != matching::kNone && !inst.is_last_resort(p)) ++size;
  }
  return size;
}

bool satisfies_popular_characterization(const Instance& inst, const ReducedGraph& rg,
                                        const matching::Matching& m) {
  if (!is_valid_assignment(inst, m) || !is_applicant_complete(inst, m)) return false;
  for (const auto p : rg.f_posts) {
    if (!m.right_matched(p)) return false;  // condition (i)
  }
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const std::int32_t p = m.right_of(a);
    const auto ai = static_cast<std::size_t>(a);
    if (p != rg.f_post[ai] && p != rg.s_post[ai]) return false;  // condition (ii)
  }
  return true;
}

}  // namespace ncpm::core
