#include "net/stats_frame.hpp"

#include <limits>
#include <utility>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace ncpm::net {

namespace {

[[noreturn]] void fail(const std::string& what) { throw NetError(NetErrc::kProtocol, what); }

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_string(std::string& out, const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint16_t>::max())
    fail("stats string exceeds the u16 length prefix");
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s);
}

void put_labels(std::string& out, const obs::Labels& labels) {
  if (labels.size() > std::numeric_limits<std::uint8_t>::max())
    fail("stats label set exceeds the u8 count prefix");
  put_u8(out, static_cast<std::uint8_t>(labels.size()));
  for (const auto& [k, v] : labels) {
    put_string(out, k);
    put_string(out, v);
  }
}

/// Bounds-checked little-endian cursor (mirror of frame.cpp's, private to
/// the stats codec).
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8(const char* what) {
    need(1, what);
    return data_[pos_++];
  }
  std::uint16_t u16(const char* what) {
    need(2, what);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v = static_cast<std::uint16_t>(v | static_cast<std::uint16_t>(data_[pos_++]) << (8 * i));
    return v;
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return v;
  }
  std::string str(const char* what) {
    const std::size_t n = u16(what);
    need(n, what);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  void finish(const char* what) const {
    if (pos_ != size_) fail(std::string("trailing bytes in ") + what);
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n) fail(std::string("truncated ") + what);
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

obs::Labels get_labels(Cursor& cur) {
  const std::size_t n = cur.u8("stats label count");
  obs::Labels labels;
  labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string k = cur.str("stats label key");
    std::string v = cur.str("stats label value");
    labels.emplace_back(std::move(k), std::move(v));
  }
  return labels;
}

/// Prepend the u32 length to a finished body.
std::string with_length_prefix(const std::string& body) {
  if (body.size() > kMaxFrameBody) fail("stats frame body exceeds the protocol cap");
  std::string frame;
  frame.reserve(4 + body.size());
  put_u32(frame, static_cast<std::uint32_t>(body.size()));
  frame.append(body);
  return frame;
}

}  // namespace

std::string encode_stats_request_frame(std::uint64_t token, std::uint8_t flags) {
  std::string body;
  body.reserve(kStatsRequestBodySize);
  put_u8(body, static_cast<std::uint8_t>(FrameType::kStatsRequest));
  put_u64(body, token);
  put_u8(body, flags);
  return with_length_prefix(body);
}

std::optional<StatsRequest> parse_stats_request_body(const std::uint8_t* body,
                                                     std::size_t size) noexcept {
  if (size != kStatsRequestBodySize) return std::nullopt;
  if (body[0] != static_cast<std::uint8_t>(FrameType::kStatsRequest)) return std::nullopt;
  StatsRequest req;
  for (int i = 0; i < 8; ++i)
    req.token |= static_cast<std::uint64_t>(body[1 + i]) << (8 * i);
  req.flags = body[9];
  return req;
}

std::string encode_stats_response_frame(std::uint64_t token, const obs::Snapshot& snap,
                                        const std::vector<obs::TraceSpan>& spans) {
  std::string body;
  body.reserve(1024);
  put_u8(body, static_cast<std::uint8_t>(FrameType::kStatsResponse));
  put_u64(body, token);
  put_u32(body, kStatsSnapshotVersion);
  put_u64(body, snap.uptime_ns);

  put_u32(body, static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& c : snap.counters) {
    put_string(body, c.name);
    put_string(body, c.help);
    put_labels(body, c.labels);
    put_u64(body, c.value);
  }
  put_u32(body, static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& g : snap.gauges) {
    put_string(body, g.name);
    put_string(body, g.help);
    put_labels(body, g.labels);
    put_u64(body, static_cast<std::uint64_t>(g.value));
  }
  put_u32(body, static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& h : snap.histograms) {
    put_string(body, h.name);
    put_string(body, h.help);
    put_labels(body, h.labels);
    put_u64(body, h.count);
    put_u64(body, h.sum);
    std::uint8_t nonzero = 0;
    for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i)
      if (h.buckets[i] != 0) ++nonzero;
    put_u8(body, nonzero);
    for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      put_u8(body, static_cast<std::uint8_t>(i));
      put_u64(body, h.buckets[i]);
    }
  }
  put_u32(body, static_cast<std::uint32_t>(spans.size()));
  for (const auto& s : spans) {
    put_u64(body, s.request_id);
    put_u64(body, s.conn_id);
    put_u8(body, s.mode);
    put_u8(body, s.status);
    put_u64(body, s.accept_ns);
    put_u64(body, s.frame_read_ns);
    put_u64(body, s.dispatch_ns);
    put_u64(body, s.solve_start_ns);
    put_u64(body, s.solve_end_ns);
    put_u64(body, s.response_ns);
    // Digest + payload size + sparse phase breakdown.
    put_u64(body, s.instance_digest);
    put_u32(body, s.payload_bytes);
    std::uint8_t nonzero = 0;
    for (std::size_t p = 0; p < obs::kNumPhases; ++p)
      if (s.phase_ns[p] != 0) ++nonzero;
    put_u8(body, nonzero);
    for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
      if (s.phase_ns[p] == 0) continue;
      put_u8(body, static_cast<std::uint8_t>(p));
      put_u64(body, s.phase_ns[p]);
    }
  }
  return with_length_prefix(body);
}

StatsReply decode_stats_response_body(const std::uint8_t* body, std::size_t size) {
  Cursor cur(body, size);
  if (cur.u8("stats response type") != static_cast<std::uint8_t>(FrameType::kStatsResponse))
    fail("stats response carries the wrong frame type");
  StatsReply reply;
  reply.token = cur.u64("stats token");
  reply.version = cur.u32("stats snapshot version");
  if (reply.version != kStatsSnapshotVersion)
    fail("unsupported stats snapshot version " + std::to_string(reply.version));
  reply.snapshot.uptime_ns = cur.u64("stats uptime");

  const std::size_t n_counters = cur.u32("stats counter count");
  reply.snapshot.counters.reserve(n_counters);
  for (std::size_t i = 0; i < n_counters; ++i) {
    obs::CounterSample c;
    c.name = cur.str("counter name");
    c.help = cur.str("counter help");
    c.labels = get_labels(cur);
    c.value = cur.u64("counter value");
    reply.snapshot.counters.push_back(std::move(c));
  }
  const std::size_t n_gauges = cur.u32("stats gauge count");
  reply.snapshot.gauges.reserve(n_gauges);
  for (std::size_t i = 0; i < n_gauges; ++i) {
    obs::GaugeSample g;
    g.name = cur.str("gauge name");
    g.help = cur.str("gauge help");
    g.labels = get_labels(cur);
    g.value = static_cast<std::int64_t>(cur.u64("gauge value"));
    reply.snapshot.gauges.push_back(std::move(g));
  }
  const std::size_t n_hists = cur.u32("stats histogram count");
  reply.snapshot.histograms.reserve(n_hists);
  for (std::size_t i = 0; i < n_hists; ++i) {
    obs::HistogramSample h;
    h.name = cur.str("histogram name");
    h.help = cur.str("histogram help");
    h.labels = get_labels(cur);
    h.count = cur.u64("histogram count");
    h.sum = cur.u64("histogram sum");
    const std::size_t nonzero = cur.u8("histogram bucket count");
    for (std::size_t b = 0; b < nonzero; ++b) {
      const std::uint8_t idx = cur.u8("histogram bucket index");
      if (idx >= obs::kHistogramBuckets) fail("histogram bucket index out of range");
      h.buckets[idx] = cur.u64("histogram bucket value");
    }
    reply.snapshot.histograms.push_back(std::move(h));
  }
  const std::size_t n_spans = cur.u32("stats span count");
  reply.spans.reserve(n_spans);
  for (std::size_t i = 0; i < n_spans; ++i) {
    obs::TraceSpan s;
    s.request_id = cur.u64("span request id");
    s.conn_id = cur.u64("span conn id");
    s.mode = cur.u8("span mode");
    s.status = cur.u8("span status");
    s.accept_ns = cur.u64("span accept ts");
    s.frame_read_ns = cur.u64("span frame-read ts");
    s.dispatch_ns = cur.u64("span dispatch ts");
    s.solve_start_ns = cur.u64("span solve-start ts");
    s.solve_end_ns = cur.u64("span solve-end ts");
    s.response_ns = cur.u64("span response ts");
    s.instance_digest = cur.u64("span instance digest");
    s.payload_bytes = cur.u32("span payload bytes");
    const std::size_t nonzero = cur.u8("span phase count");
    for (std::size_t p = 0; p < nonzero; ++p) {
      const std::uint8_t idx = cur.u8("span phase index");
      if (idx >= obs::kNumPhases) fail("span phase index out of range");
      s.phase_ns[idx] = cur.u64("span phase ns");
    }
    reply.spans.push_back(s);
  }
  cur.finish("stats response frame");
  return reply;
}

}  // namespace ncpm::net
