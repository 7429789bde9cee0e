#include "core/instance.hpp"

#include <algorithm>
#include <stdexcept>

namespace ncpm::core {

Instance Instance::from_csr(std::int32_t num_posts, std::vector<std::size_t> offsets,
                            std::vector<std::int32_t> posts, std::vector<std::int32_t> ranks,
                            bool with_last_resorts) {
  if (num_posts < 0) throw std::invalid_argument("Instance: negative post count");
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != posts.size() ||
      ranks.size() != posts.size()) {
    throw std::invalid_argument("Instance: offsets do not cover the preference arrays");
  }
  Instance inst;
  inst.num_posts_ = num_posts;
  inst.has_last_resorts_ = with_last_resorts;
  // listed_by[p] = the last applicant whose list held p, so a repeat within
  // one list is caught without clearing anything between lists.
  std::vector<std::int32_t> listed_by(static_cast<std::size_t>(num_posts), kNone);
  for (std::size_t a = 0; a + 1 < offsets.size(); ++a) {
    const std::size_t begin = offsets[a];
    const std::size_t end = offsets[a + 1];
    if (end < begin || end > posts.size()) {
      throw std::invalid_argument("Instance: offsets are not monotone");
    }
    if (with_last_resorts && begin == end) {
      throw std::invalid_argument("Instance: preference lists must be non-empty");
    }
    std::int32_t prev = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::int32_t p = posts[i];
      if (p < 0 || p >= num_posts) throw std::out_of_range("Instance: post id out of range");
      auto& owner = listed_by[static_cast<std::size_t>(p)];
      if (owner == static_cast<std::int32_t>(a)) {
        throw std::invalid_argument("Instance: duplicate post in a preference list");
      }
      owner = static_cast<std::int32_t>(a);
      const std::int32_t r = ranks[i];
      if (i == begin ? r != 1 : (r != prev && r != prev + 1)) {
        throw std::invalid_argument("Instance: ranks must start at 1 and step by 0 or 1");
      }
      if (r == prev) inst.strict_ = false;
      prev = r;
    }
    inst.max_ranks_ = std::max(inst.max_ranks_, prev);
  }
  inst.list_off_ = std::move(offsets);
  inst.posts_ = std::move(posts);
  inst.ranks_ = std::move(ranks);
  return inst;
}

Instance Instance::strict(std::int32_t num_posts, std::vector<std::vector<std::int32_t>> lists,
                          bool with_last_resorts) {
  std::vector<std::size_t> offsets{0};
  std::vector<std::int32_t> posts;
  std::vector<std::int32_t> ranks;
  for (const auto& list : lists) {
    posts.insert(posts.end(), list.begin(), list.end());
    for (std::int32_t rank = 1; ranks.size() < posts.size(); ++rank) ranks.push_back(rank);
    offsets.push_back(posts.size());
  }
  return from_csr(num_posts, std::move(offsets), std::move(posts), std::move(ranks),
                  with_last_resorts);
}

Instance Instance::with_ties(std::int32_t num_posts, std::vector<TieGroups> groups,
                             bool with_last_resorts) {
  std::vector<std::size_t> offsets{0};
  std::vector<std::int32_t> posts;
  std::vector<std::int32_t> ranks;
  for (const auto& list : groups) {
    for (std::size_t k = 0; k < list.size(); ++k) {
      if (list[k].empty()) throw std::invalid_argument("Instance: empty tie group");
      posts.insert(posts.end(), list[k].begin(), list[k].end());
      ranks.resize(posts.size(), static_cast<std::int32_t>(k) + 1);
    }
    offsets.push_back(posts.size());
  }
  return from_csr(num_posts, std::move(offsets), std::move(posts), std::move(ranks),
                  with_last_resorts);
}

std::int32_t Instance::last_resort(std::int32_t a) const {
  if (!has_last_resorts_) throw std::logic_error("Instance: no last-resort posts in this instance");
  if (a < 0 || a >= num_applicants()) throw std::out_of_range("Instance: applicant out of range");
  return num_posts_ + a;
}

std::int32_t Instance::rank_of(std::int32_t a, std::int32_t p) const {
  if (a < 0 || a >= num_applicants()) throw std::out_of_range("Instance: applicant out of range");
  if (p == kNone) return kNoRank;
  if (is_last_resort(p)) {
    return (has_last_resorts_ && p == num_posts_ + a) ? num_ranks(a) + 1 : kNoRank;
  }
  const auto posts = posts_of(a);
  const auto it = std::find(posts.begin(), posts.end(), p);
  return it == posts.end() ? kNoRank : ranks_of(a)[static_cast<std::size_t>(it - posts.begin())];
}

bool Instance::prefers(std::int32_t a, std::int32_t p, std::int32_t q) const {
  return rank_of(a, p) < rank_of(a, q);
}

}  // namespace ncpm::core
