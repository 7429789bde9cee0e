#include "obs/trace.hpp"

namespace ncpm::obs {

TraceRing::TraceRing(std::size_t capacity, std::uint64_t sample_every)
    : capacity_(sample_every == 0 ? 0 : capacity),
      sample_every_(capacity == 0 ? 0 : sample_every) {
  if (capacity_ > 0) slots_ = std::make_unique<Slot[]>(capacity_);
}

bool TraceRing::should_sample() noexcept {
  if (!enabled()) return false;
  return ticket_.fetch_add(1, std::memory_order_relaxed) % sample_every_ == 0;
}

void TraceRing::commit(const TraceSpan& span) noexcept {
  if (!enabled()) return;
  Slot& slot = slots_[commits_.fetch_add(1, std::memory_order_relaxed) % capacity_];
  // Seqlock write: odd while the fields are in flux. The writer claims the
  // slot by moving seq from even to odd; a writer that finds it odd (or loses
  // the race to claim it) has lapped a slow writer a full ring's worth of
  // commits behind, and drops its span rather than interleave with it. The
  // release fence orders the claim before every field store, so a reader
  // that sees any new field also sees the odd seq and discards the slot.
  std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1u) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1, std::memory_order_relaxed)) {
    return;
  }
  std::atomic_thread_fence(std::memory_order_release);
  slot.request_id.store(span.request_id, std::memory_order_relaxed);
  slot.conn_id.store(span.conn_id, std::memory_order_relaxed);
  slot.mode_status.store(
      (static_cast<std::uint64_t>(span.mode) << 8) | span.status,
      std::memory_order_relaxed);
  slot.accept_ns.store(span.accept_ns, std::memory_order_relaxed);
  slot.frame_read_ns.store(span.frame_read_ns, std::memory_order_relaxed);
  slot.dispatch_ns.store(span.dispatch_ns, std::memory_order_relaxed);
  slot.solve_start_ns.store(span.solve_start_ns, std::memory_order_relaxed);
  slot.solve_end_ns.store(span.solve_end_ns, std::memory_order_relaxed);
  slot.response_ns.store(span.response_ns, std::memory_order_relaxed);
  slot.instance_digest.store(span.instance_digest, std::memory_order_relaxed);
  slot.payload_bytes.store(span.payload_bytes, std::memory_order_relaxed);
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    slot.phase_ns[p].store(span.phase_ns[p], std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
}

std::vector<TraceSpan> TraceRing::snapshot() const {
  std::vector<TraceSpan> out;
  if (!enabled()) return out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    const std::uint32_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1u) != 0) continue;  // empty or mid-write
    TraceSpan span;
    span.request_id = slot.request_id.load(std::memory_order_relaxed);
    span.conn_id = slot.conn_id.load(std::memory_order_relaxed);
    const std::uint64_t ms = slot.mode_status.load(std::memory_order_relaxed);
    span.mode = static_cast<std::uint8_t>(ms >> 8);
    span.status = static_cast<std::uint8_t>(ms & 0xff);
    span.accept_ns = slot.accept_ns.load(std::memory_order_relaxed);
    span.frame_read_ns = slot.frame_read_ns.load(std::memory_order_relaxed);
    span.dispatch_ns = slot.dispatch_ns.load(std::memory_order_relaxed);
    span.solve_start_ns = slot.solve_start_ns.load(std::memory_order_relaxed);
    span.solve_end_ns = slot.solve_end_ns.load(std::memory_order_relaxed);
    span.response_ns = slot.response_ns.load(std::memory_order_relaxed);
    span.instance_digest = slot.instance_digest.load(std::memory_order_relaxed);
    span.payload_bytes =
        static_cast<std::uint32_t>(slot.payload_bytes.load(std::memory_order_relaxed));
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      span.phase_ns[p] = slot.phase_ns[p].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;  // torn
    out.push_back(span);
  }
  return out;
}

std::string render_spans_json(const std::vector<TraceSpan>& spans) {
  std::string out;
  out.reserve(64 + spans.size() * 160);
  out += '[';
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"request_id\":";
    out += std::to_string(s.request_id);
    out += ",\"conn_id\":";
    out += std::to_string(s.conn_id);
    out += ",\"mode\":";
    out += std::to_string(s.mode);
    out += ",\"status\":";
    out += std::to_string(s.status);
    out += ",\"accept_ns\":";
    out += std::to_string(s.accept_ns);
    out += ",\"frame_read_ns\":";
    out += std::to_string(s.frame_read_ns);
    out += ",\"dispatch_ns\":";
    out += std::to_string(s.dispatch_ns);
    out += ",\"solve_start_ns\":";
    out += std::to_string(s.solve_start_ns);
    out += ",\"solve_end_ns\":";
    out += std::to_string(s.solve_end_ns);
    out += ",\"response_ns\":";
    out += std::to_string(s.response_ns);
    out += ",\"instance_digest\":\"";
    // Digest as a hex string: 64-bit values overflow double-typed JSON
    // consumers, and hex is what operators grep logs for.
    constexpr char kHex[] = "0123456789abcdef";
    for (int shift = 60; shift >= 0; shift -= 4) {
      out += kHex[(s.instance_digest >> shift) & 0xf];
    }
    out += "\",\"payload_bytes\":";
    out += std::to_string(s.payload_bytes);
    out += ",\"phases\":{";
    bool first_phase = true;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      if (s.phase_ns[p] == 0) continue;
      if (!first_phase) out += ',';
      first_phase = false;
      out += '"';
      out += phase_name(p);
      out += "\":";
      out += std::to_string(s.phase_ns[p]);
    }
    out += "}}";
  }
  out += ']';
  return out;
}

}  // namespace ncpm::obs
