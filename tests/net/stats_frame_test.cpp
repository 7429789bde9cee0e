// Stats frame (types 5/6) codec tests: request recognition is exact,
// response round-trips a full obs::Snapshot (sparse histogram buckets,
// labels, spans), and corrupted or truncated bodies throw kProtocol
// instead of over-reading.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/stats_frame.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ncpm::net {
namespace {

/// Strips the u32 length prefix off complete wire bytes.
std::vector<std::uint8_t> body_of(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  std::uint32_t len = 0;
  std::memcpy(&len, frame.data(), 4);
  EXPECT_EQ(static_cast<std::size_t>(len) + 4, frame.size());
  return std::vector<std::uint8_t>(frame.begin() + 4, frame.end());
}

obs::Snapshot sample_snapshot() {
  obs::Registry reg;
  reg.counter("a_total", "Help a").add(11);
  reg.counter("b_total", "Help b", {{"mode", "solve"}, {"zone", "eu"}}).add(22);
  reg.gauge("g", "A gauge").set(-9);
  obs::Histogram& h = reg.histogram("lat_ns", "Latency", {{"mode", "x"}});
  h.observe(0);
  h.observe(5);
  h.observe(5);
  h.observe(1 << 20);
  return reg.snapshot();
}

TEST(StatsRequestCodec, RoundTripsTokenAndFlags) {
  const auto frame = encode_stats_request_frame(0x1122334455667788ull, kStatsFlagTraces);
  const auto body = body_of(frame);
  ASSERT_EQ(body.size(), kStatsRequestBodySize);
  EXPECT_EQ(body[0], static_cast<std::uint8_t>(FrameType::kStatsRequest));
  const auto req = parse_stats_request_body(body.data(), body.size());
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->token, 0x1122334455667788ull);
  EXPECT_EQ(req->flags, kStatsFlagTraces);
}

TEST(StatsRequestCodec, RejectsWrongSizeOrType) {
  const auto body = body_of(encode_stats_request_frame(1, 0));
  EXPECT_FALSE(parse_stats_request_body(body.data(), body.size() - 1).has_value());
  auto longer = body;
  longer.push_back(0);
  EXPECT_FALSE(parse_stats_request_body(longer.data(), longer.size()).has_value());
  auto wrong_type = body;
  wrong_type[0] = static_cast<std::uint8_t>(FrameType::kRequest);
  EXPECT_FALSE(parse_stats_request_body(wrong_type.data(), wrong_type.size()).has_value());
  EXPECT_FALSE(parse_stats_request_body(nullptr, 0).has_value());
}

TEST(StatsResponseCodec, RoundTripsAFullSnapshot) {
  const obs::Snapshot snap = sample_snapshot();
  const auto body = body_of(encode_stats_response_frame(42, snap, {}));
  const StatsReply reply = decode_stats_response_body(body.data(), body.size());

  EXPECT_EQ(reply.token, 42u);
  EXPECT_EQ(reply.version, kStatsSnapshotVersion);
  EXPECT_EQ(reply.snapshot.uptime_ns, snap.uptime_ns);

  ASSERT_EQ(reply.snapshot.counters.size(), 2u);
  EXPECT_EQ(reply.snapshot.counters[0].name, "a_total");
  EXPECT_EQ(reply.snapshot.counters[0].help, "Help a");
  EXPECT_EQ(reply.snapshot.counters[0].value, 11u);
  EXPECT_EQ(reply.snapshot.counters[1].labels,
            (obs::Labels{{"mode", "solve"}, {"zone", "eu"}}));
  EXPECT_EQ(reply.snapshot.counters[1].value, 22u);

  ASSERT_EQ(reply.snapshot.gauges.size(), 1u);
  EXPECT_EQ(reply.snapshot.gauges[0].value, -9);

  ASSERT_EQ(reply.snapshot.histograms.size(), 1u);
  const auto& h = reply.snapshot.histograms[0];
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, snap.histograms[0].sum);
  EXPECT_EQ(h.buckets, snap.histograms[0].buckets);  // sparse encoding is lossless

  EXPECT_TRUE(reply.spans.empty());
}

TEST(StatsResponseCodec, RoundTripsTraceSpans) {
  obs::TraceSpan span;
  span.request_id = 5;
  span.conn_id = 3;
  span.mode = 2;
  span.status = 1;
  span.accept_ns = 100;
  span.frame_read_ns = 110;
  span.dispatch_ns = 120;
  span.solve_start_ns = 130;
  span.solve_end_ns = 140;
  span.response_ns = 150;

  const auto body = body_of(encode_stats_response_frame(7, obs::Snapshot{}, {span}));
  const StatsReply reply = decode_stats_response_body(body.data(), body.size());
  ASSERT_EQ(reply.spans.size(), 1u);
  EXPECT_EQ(reply.spans[0].request_id, 5u);
  EXPECT_EQ(reply.spans[0].conn_id, 3u);
  EXPECT_EQ(reply.spans[0].mode, 2);
  EXPECT_EQ(reply.spans[0].status, 1);
  EXPECT_EQ(reply.spans[0].accept_ns, 100u);
  EXPECT_EQ(reply.spans[0].response_ns, 150u);
}

TEST(StatsResponseCodec, RoundTripsV2SpanTail) {
  // The v2 span tail: instance digest, payload size, and the sparse
  // per-phase breakdown the `top`/trace tooling renders.
  obs::TraceSpan span;
  span.request_id = 77;
  span.instance_digest = 0xfeedfacecafebeefull;
  span.payload_bytes = 4096;
  span.phase_ns[static_cast<std::size_t>(obs::Phase::kDecode)] = 1200;
  span.phase_ns[static_cast<std::size_t>(obs::Phase::kGf2Rank)] = 88000;
  span.phase_ns[static_cast<std::size_t>(obs::Phase::kVerify)] = 310;

  const auto body = body_of(encode_stats_response_frame(7, obs::Snapshot{}, {span}));
  const StatsReply reply = decode_stats_response_body(body.data(), body.size());
  ASSERT_EQ(reply.spans.size(), 1u);
  EXPECT_EQ(reply.version, 2u);
  EXPECT_EQ(reply.spans[0].instance_digest, 0xfeedfacecafebeefull);
  EXPECT_EQ(reply.spans[0].payload_bytes, 4096u);
  EXPECT_EQ(reply.spans[0].phase_ns, span.phase_ns);  // sparse encoding is lossless
}

TEST(StatsResponseCodec, DecoderRejectsVersion1) {
  // A version-1 peer's span rows stop after response_ns. Synthesise one by
  // rewriting the version field and stripping the (empty) version-2 tail:
  // u64 digest + u32 payload + u8 phase count = 13 bytes at the body end.
  // Only kStatsSnapshotVersion decodes; the old layout is a protocol error.
  obs::TraceSpan span;
  span.request_id = 5;
  span.mode = 2;
  span.response_ns = 150;
  auto body = body_of(encode_stats_response_frame(3, obs::Snapshot{}, {span}));
  body[9] = 1;  // u32 version sits after type + token, little-endian
  ASSERT_GE(body.size(), 13u);
  body.resize(body.size() - 13);
  EXPECT_THROW(
      {
        try {
          decode_stats_response_body(body.data(), body.size());
        } catch (const NetError& e) {
          EXPECT_EQ(e.code(), NetErrc::kProtocol);
          throw;
        }
      },
      NetError);
}

TEST(StatsResponseCodec, OutOfRangeSpanPhaseIndexThrowsProtocol) {
  obs::TraceSpan span;
  span.phase_ns[static_cast<std::size_t>(obs::Phase::kDecode)] = 5;
  auto body = body_of(encode_stats_response_frame(1, obs::Snapshot{}, {span}));
  // The single sparse phase entry ends the body: u8 index + u64 value.
  body[body.size() - 9] = static_cast<std::uint8_t>(obs::kNumPhases);
  EXPECT_THROW(
      {
        try {
          decode_stats_response_body(body.data(), body.size());
        } catch (const NetError& e) {
          EXPECT_EQ(e.code(), NetErrc::kProtocol);
          throw;
        }
      },
      NetError);
}

TEST(StatsResponseCodec, EmptySnapshotRoundTrips) {
  const auto body = body_of(encode_stats_response_frame(0, obs::Snapshot{}, {}));
  const StatsReply reply = decode_stats_response_body(body.data(), body.size());
  EXPECT_TRUE(reply.snapshot.counters.empty());
  EXPECT_TRUE(reply.snapshot.gauges.empty());
  EXPECT_TRUE(reply.snapshot.histograms.empty());
}

TEST(StatsResponseCodec, TruncationAtEveryPrefixThrowsProtocol) {
  const auto body = body_of(encode_stats_response_frame(9, sample_snapshot(), {}));
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_THROW(
        {
          try {
            decode_stats_response_body(body.data(), cut);
          } catch (const NetError& e) {
            EXPECT_EQ(e.code(), NetErrc::kProtocol);
            throw;
          }
        },
        NetError)
        << "prefix of " << cut << " bytes decoded without error";
  }
}

TEST(StatsResponseCodec, WrongTypeOrVersionThrowsProtocol) {
  auto body = body_of(encode_stats_response_frame(9, obs::Snapshot{}, {}));
  auto wrong_type = body;
  wrong_type[0] = static_cast<std::uint8_t>(FrameType::kResponse);
  EXPECT_THROW(decode_stats_response_body(wrong_type.data(), wrong_type.size()), NetError);
  auto wrong_version = body;
  wrong_version[9] = 0xee;  // u32 version sits after type + token
  EXPECT_THROW(decode_stats_response_body(wrong_version.data(), wrong_version.size()),
               NetError);
}

}  // namespace
}  // namespace ncpm::net
