#pragma once
// Stable-marriage instances (Section VI-A).
//
// n men and n women, each with a complete, strictly-ordered preference list
// over the opposite side. The paper works with the preference matrices
// mp/wp and the ranking matrices mr/wr (mr[m][w] = position of w in m's
// list); both are stored flat and validated as permutations.

#include <cstdint>
#include <span>
#include <vector>

namespace ncpm::stable {

inline constexpr std::int32_t kNone = -1;

class StableInstance {
 public:
  /// men_prefs[m] / women_prefs[w] are permutations of 0..n-1, best first.
  static StableInstance from_lists(std::vector<std::vector<std::int32_t>> men_prefs,
                                   std::vector<std::vector<std::int32_t>> women_prefs);

  std::int32_t size() const noexcept { return n_; }

  /// The i-th ranked woman of man m (i = 0 is his favourite): mp[m][i].
  std::int32_t man_pref(std::int32_t m, std::int32_t i) const {
    return mp_[static_cast<std::size_t>(m) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(i)];
  }
  std::int32_t woman_pref(std::int32_t w, std::int32_t i) const {
    return wp_[static_cast<std::size_t>(w) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(i)];
  }
  std::span<const std::int32_t> man_prefs(std::int32_t m) const {
    return {mp_.data() + static_cast<std::size_t>(m) * static_cast<std::size_t>(n_),
            static_cast<std::size_t>(n_)};
  }
  std::span<const std::int32_t> woman_prefs(std::int32_t w) const {
    return {wp_.data() + static_cast<std::size_t>(w) * static_cast<std::size_t>(n_),
            static_cast<std::size_t>(n_)};
  }

  /// Ranking matrices: position (0-based) of w in m's list and vice versa.
  std::int32_t man_rank_of(std::int32_t m, std::int32_t w) const {
    return mr_[static_cast<std::size_t>(m) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(w)];
  }
  std::int32_t woman_rank_of(std::int32_t w, std::int32_t m) const {
    return wr_[static_cast<std::size_t>(w) * static_cast<std::size_t>(n_) +
               static_cast<std::size_t>(m)];
  }

  bool man_prefers(std::int32_t m, std::int32_t w1, std::int32_t w2) const {
    return man_rank_of(m, w1) < man_rank_of(m, w2);
  }
  bool woman_prefers(std::int32_t w, std::int32_t m1, std::int32_t m2) const {
    return woman_rank_of(w, m1) < woman_rank_of(w, m2);
  }

 private:
  std::int32_t n_ = 0;
  std::vector<std::int32_t> mp_, wp_, mr_, wr_;
};

/// A perfect matching between men and women, both directions maintained.
struct MarriageMatching {
  std::vector<std::int32_t> wife_of;
  std::vector<std::int32_t> husband_of;

  static MarriageMatching from_wife_of(std::vector<std::int32_t> wife_of);
  bool operator==(const MarriageMatching& other) const { return wife_of == other.wife_of; }
};

/// Throws std::invalid_argument unless both directions of m have inst.size() entries.
void require_same_size(const StableInstance& inst, const MarriageMatching& m);

}  // namespace ncpm::stable
