#include "stable/instance.hpp"

#include <stdexcept>

namespace ncpm::stable {

namespace {

void fill_side(std::int32_t n, const std::vector<std::vector<std::int32_t>>& prefs,
               std::vector<std::int32_t>& flat, std::vector<std::int32_t>& rank) {
  flat.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kNone);
  rank.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kNone);
  for (std::int32_t p = 0; p < n; ++p) {
    const auto& list = prefs[static_cast<std::size_t>(p)];
    if (static_cast<std::int32_t>(list.size()) != n) {
      throw std::invalid_argument("StableInstance: preference list is not complete");
    }
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t q = list[static_cast<std::size_t>(i)];
      if (q < 0 || q >= n) throw std::out_of_range("StableInstance: id out of range");
      const auto base = static_cast<std::size_t>(p) * static_cast<std::size_t>(n);
      if (rank[base + static_cast<std::size_t>(q)] != kNone) {
        throw std::invalid_argument("StableInstance: duplicate entry in a preference list");
      }
      flat[base + static_cast<std::size_t>(i)] = q;
      rank[base + static_cast<std::size_t>(q)] = i;
    }
  }
}

}  // namespace

StableInstance StableInstance::from_lists(std::vector<std::vector<std::int32_t>> men_prefs,
                                          std::vector<std::vector<std::int32_t>> women_prefs) {
  if (men_prefs.size() != women_prefs.size()) {
    throw std::invalid_argument("StableInstance: side sizes differ");
  }
  StableInstance inst;
  inst.n_ = static_cast<std::int32_t>(men_prefs.size());
  fill_side(inst.n_, men_prefs, inst.mp_, inst.mr_);
  fill_side(inst.n_, women_prefs, inst.wp_, inst.wr_);
  return inst;
}

MarriageMatching MarriageMatching::from_wife_of(std::vector<std::int32_t> wife_of) {
  MarriageMatching m;
  m.husband_of.assign(wife_of.size(), kNone);
  for (std::size_t man = 0; man < wife_of.size(); ++man) {
    const std::int32_t w = wife_of[man];
    if (w < 0 || static_cast<std::size_t>(w) >= wife_of.size()) {
      throw std::out_of_range("MarriageMatching: woman id out of range");
    }
    if (m.husband_of[static_cast<std::size_t>(w)] != kNone) {
      throw std::invalid_argument("MarriageMatching: two men share a wife");
    }
    m.husband_of[static_cast<std::size_t>(w)] = static_cast<std::int32_t>(man);
  }
  m.wife_of = std::move(wife_of);
  return m;
}

void require_same_size(const StableInstance& inst, const MarriageMatching& m) {
  const auto n = static_cast<std::size_t>(inst.size());
  if (m.wife_of.size() != n || m.husband_of.size() != n) {
    throw std::invalid_argument("MarriageMatching: size differs from the instance");
  }
}

}  // namespace ncpm::stable
