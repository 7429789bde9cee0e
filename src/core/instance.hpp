#pragma once
// The one-sided preference-system instance of Section II.
//
// Applicants 0..A-1 rank a non-empty subset of posts 0..P-1, possibly with
// ties (several posts sharing one rank). Following the paper, every
// applicant a also has a unique *last-resort* post l(a), ranked strictly
// below everything on a's list, so that matchings can be assumed
// applicant-complete; the "size" of a matching is the number of applicants
// not parked on their last resort.
//
// Posts live in an *extended* id space: real posts keep their ids and
// l(a) = P + a. The Theorem 11 reduction needs instances *without* last
// resorts ("We do not add last resort posts at all"), so that extension is
// optional per instance.
//
// Layout: one CSR and nothing else. Applicant a's entries are
// [list_off_[a], list_off_[a+1]) of posts_ (preference order, ties adjacent)
// and ranks_ (1-based; equal rank = tie), 8 bytes per entry. from_csr fills
// them; every other constructor flattens its input into it. rank_of is a
// scan of posts_of(a), O(L_a): the solvers walk lists in order, and rank_of's
// callers ask O(1) times per applicant, O(m) in total.

#include <cstdint>
#include <span>
#include <vector>

namespace ncpm::core {

inline constexpr std::int32_t kNone = -1;
/// Rank reported for unacceptable posts (compares worse than everything).
inline constexpr std::int32_t kNoRank = INT32_MAX;

class Instance {
 public:
  /// One applicant's list as tie groups: groups[k] = the posts it ranks k+1.
  using TieGroups = std::vector<std::vector<std::int32_t>>;

  /// The one validating constructor, over the layout above. Throws
  /// std::out_of_range for a post id outside [0, num_posts), else
  /// std::invalid_argument for offsets not monotone from 0 to posts.size(),
  /// a size mismatch, ranks not starting at 1 or stepping by more than 1, a
  /// repeated post in a list, or an empty list when last resorts are on.
  static Instance from_csr(std::int32_t num_posts, std::vector<std::size_t> offsets,
                           std::vector<std::int32_t> posts, std::vector<std::int32_t> ranks,
                           bool with_last_resorts = true);
  /// Strictly-ordered lists: lists[a] = posts of a in decreasing preference.
  static Instance strict(std::int32_t num_posts, std::vector<std::vector<std::int32_t>> lists,
                         bool with_last_resorts = true);
  /// Lists with ties: groups[a][k] = the posts applicant a ranks k+1 (tied);
  /// an empty group is rejected with std::invalid_argument.
  static Instance with_ties(std::int32_t num_posts, std::vector<TieGroups> groups,
                            bool with_last_resorts = true);

  std::int32_t num_applicants() const noexcept {
    return static_cast<std::int32_t>(list_off_.size()) - 1;
  }
  std::int32_t num_posts() const noexcept { return num_posts_; }
  bool has_last_resorts() const noexcept { return has_last_resorts_; }
  bool strict_prefs() const noexcept { return strict_; }

  /// Extended post-id space: real posts then (when enabled) last resorts.
  std::int32_t total_posts() const noexcept {
    return has_last_resorts_ ? num_posts_ + num_applicants() : num_posts_;
  }
  std::int32_t last_resort(std::int32_t a) const;
  bool is_last_resort(std::int32_t p) const noexcept { return p >= num_posts_; }

  /// a's acceptable real posts in preference order (ties adjacent).
  std::span<const std::int32_t> posts_of(std::int32_t a) const {
    const auto i = static_cast<std::size_t>(a);
    return {posts_.data() + list_off_[i], list_off_[i + 1] - list_off_[i]};
  }
  /// 1-based rank of each entry of posts_of(a) (equal rank = tie).
  std::span<const std::int32_t> ranks_of(std::int32_t a) const {
    const auto i = static_cast<std::size_t>(a);
    return {ranks_.data() + list_off_[i], list_off_[i + 1] - list_off_[i]};
  }
  std::size_t list_length(std::int32_t a) const {
    const auto i = static_cast<std::size_t>(a);
    return list_off_[i + 1] - list_off_[i];
  }
  /// Number of distinct ranks on a's list (its last resort ranks one below).
  std::int32_t num_ranks(std::int32_t a) const {
    const auto i = static_cast<std::size_t>(a);
    return list_off_[i] == list_off_[i + 1] ? 0 : ranks_[list_off_[i + 1] - 1];
  }
  /// Largest num_ranks over all applicants (0 for an empty instance).
  std::int32_t max_ranks() const noexcept { return max_ranks_; }

  /// Rank of extended post p for applicant a; l(a) ranks num_ranks(a)+1,
  /// anything unacceptable ranks kNoRank. O(L_a): a scan of posts_of(a).
  std::int32_t rank_of(std::int32_t a, std::int32_t p) const;

  /// True iff a strictly prefers extended post p to extended post q, where
  /// kNone means "unmatched" and ranks below any acceptable post.
  bool prefers(std::int32_t a, std::int32_t p, std::int32_t q) const;

 private:
  Instance() = default;

  std::int32_t num_posts_ = 0;
  bool has_last_resorts_ = true;
  bool strict_ = true;
  std::int32_t max_ranks_ = 0;
  std::vector<std::size_t> list_off_;   // CSR offsets, size A+1
  std::vector<std::int32_t> posts_;     // preference order
  std::vector<std::int32_t> ranks_;     // 1-based rank per entry
};

}  // namespace ncpm::core
