#include "support/profile_order.hpp"

#include <stdexcept>

namespace ncpm::test {

bool rank_maximal_less(const std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("profile: dimension mismatch");
  // Compare from rank 1: more applicants at a better rank wins.
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

bool fair_less(const std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("profile: dimension mismatch");
  // Compare from the worst bucket: fewer applicants at a worse rank wins,
  // so a is better (smaller) when its highest differing bucket is smaller.
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace ncpm::test
