#pragma once
// Priority concurrent writes for CRCW rounds. Inside one parallel round many
// bodies may write the same slot; the min (or max) value wins. Relaxed
// atomic_ref compare-exchange loops realise the rule, and the round's
// barrier publishes the result.

#include <atomic>

namespace ncpm::pram {

/// Lower `slot` to `value` if `value` is smaller.
template <typename T>
inline void crcw_min(T& slot, T value) {
  std::atomic_ref<T> ref(slot);
  T cur = ref.load(std::memory_order_relaxed);
  while (value < cur && !ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

/// Raise `slot` to `value` if `value` is larger.
template <typename T>
inline void crcw_max(T& slot, T value) {
  std::atomic_ref<T> ref(slot);
  T cur = ref.load(std::memory_order_relaxed);
  while (value > cur && !ref.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace ncpm::pram
