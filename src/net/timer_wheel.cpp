#include "net/timer_wheel.hpp"

namespace ncpm::net {

TimerWheel::TimerWheel(Clock::time_point now, std::chrono::milliseconds tick,
                       std::size_t slots)
    : tick_(tick.count() < 1 ? std::chrono::milliseconds(1) : tick),
      slots_(slots < 2 ? 2 : slots),
      next_tick_time_(now + tick_) {}

TimerWheel::TimerId TimerWheel::schedule(Clock::time_point now, std::chrono::milliseconds delay) {
  if (delay.count() < 0) delay = std::chrono::milliseconds(0);
  // Slot `cursor_ + t` is visited at next_tick_time_ + (t-1) * tick_: pick
  // the smallest t whose visit time is not before now + delay, rounding up
  // so a timer never fires early. Minimum one tick keeps the entry out of
  // the slot advance() is about to visit. Computed against the wheel's own
  // time base, not the cursor, so ticks that elapsed but have not been
  // advance()d yet (dispatch ran first) cannot eat into the delay.
  const auto due = now + delay;
  std::uint64_t ticks = 1;
  if (due > next_tick_time_) {
    const auto ahead =
        std::chrono::duration_cast<std::chrono::milliseconds>(due - next_tick_time_);
    ticks += static_cast<std::uint64_t>((ahead.count() + tick_.count() - 1) / tick_.count());
  }
  const auto slot = (cursor_ + ticks) % slots_.size();
  const auto rounds = static_cast<std::uint32_t>(ticks / slots_.size());
  const TimerId id = next_id_++;
  slots_[slot].push_back(Entry{id, rounds});
  ++armed_;
  return id;
}

void TimerWheel::cancel(TimerId id) {
  if (id == 0 || id >= next_id_) return;
  if (cancelled_.insert(id).second && armed_ > 0) --armed_;
}

void TimerWheel::advance(Clock::time_point now, std::vector<TimerId>& expired) {
  while (next_tick_time_ <= now) {
    auto& slot = slots_[cursor_];
    std::size_t keep = 0;
    for (auto& entry : slot) {
      const auto it = cancelled_.find(entry.id);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);  // armed_ was already decremented by cancel()
        continue;
      }
      if (entry.rounds > 0) {
        --entry.rounds;
        slot[keep++] = entry;
        continue;
      }
      expired.push_back(entry.id);
      --armed_;
    }
    slot.resize(keep);
    cursor_ = (cursor_ + 1) % slots_.size();
    next_tick_time_ += tick_;
  }
}

std::optional<std::chrono::milliseconds> TimerWheel::next_wakeup(Clock::time_point now) const {
  if (armed_ == 0) return std::nullopt;
  for (std::size_t step = 0; step < slots_.size(); ++step) {
    const auto& slot = slots_[(cursor_ + step) % slots_.size()];
    bool live = false;
    for (const auto& entry : slot) {
      if (cancelled_.find(entry.id) == cancelled_.end()) {
        live = true;
        break;
      }
    }
    if (!live) continue;
    // Signed step: a size_t factor would make the whole sum unsigned, and an
    // overdue slot's negative wait would wrap to ~584 years.
    const auto due = next_tick_time_ + static_cast<std::int64_t>(step) * tick_;
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(due - now);
    return wait.count() < 0 ? std::chrono::milliseconds(0) : wait;
  }
  // armed_ > 0 but every entry is multi-round: wake at the next revolution.
  return std::chrono::duration_cast<std::chrono::milliseconds>(next_tick_time_ - now) +
         std::chrono::milliseconds(static_cast<long>(slots_.size()) * tick_.count());
}

}  // namespace ncpm::net
