// ncpm-rpc v1 frame codec: encode -> decode round-trips for every frame
// shape the protocol defines, plus the framing-level reader over a real
// socket pair and the hello exchange.

#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "gen/io_binary.hpp"

namespace ncpm::net {
namespace {

core::Instance sample_instance(std::uint64_t seed) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 24;
  cfg.num_posts = 60;
  cfg.contention = 2.0;
  cfg.seed = seed;
  return gen::solvable_strict_instance(cfg);
}

/// Frame bytes -> body bytes (strips and checks the u32 length prefix).
std::vector<std::uint8_t> body_of(const std::string& frame) {
  EXPECT_GE(frame.size(), 4u);
  std::uint32_t size = 0;
  for (int i = 0; i < 4; ++i) {
    size |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(frame[i])) << (8 * i);
  }
  EXPECT_EQ(size, frame.size() - 4);
  return std::vector<std::uint8_t>(frame.begin() + 4, frame.end());
}

TEST(FrameCodec, RequestRoundTrip) {
  const auto inst = sample_instance(7);
  RequestHead head;
  head.request_id = 0x1122334455667788ULL;
  head.mode_raw = static_cast<std::uint8_t>(engine::Mode::kMaxCard);
  head.deadline_ns = 250'000'000;

  const auto body = body_of(encode_request_frame(head, inst));
  const auto decoded_head = decode_request_head(body.data(), body.size());
  EXPECT_EQ(decoded_head.request_id, head.request_id);
  EXPECT_EQ(decoded_head.mode_raw, head.mode_raw);
  EXPECT_EQ(decoded_head.deadline_ns, head.deadline_ns);

  const auto decoded = decode_request_instance(body.data(), body.size());
  // The payload is io-binary's record payload, so byte-equality of the
  // re-encoding is the strongest round-trip statement available.
  EXPECT_EQ(io::encode_instance_payload(decoded), io::encode_instance_payload(inst));
}

TEST(FrameCodec, MatchingResponseRoundTrip) {
  matching::Matching m(5, 9);
  m.match(0, 3);
  m.match(2, 8);
  m.match(4, 1);

  ResponseFrame resp;
  resp.request_id = 42;
  resp.mode_raw = static_cast<std::uint8_t>(engine::Mode::kSolve);
  resp.status = RpcStatus::kOk;
  resp.queue_ns = 1234;
  resp.solve_ns = 56789;
  resp.applicants = 5;
  resp.matching_size = 3;
  resp.matching = m;

  const auto body = body_of(encode_response_frame(resp));
  const auto decoded = decode_response_frame(body.data(), body.size());
  EXPECT_EQ(decoded.request_id, resp.request_id);
  EXPECT_EQ(decoded.mode_raw, resp.mode_raw);
  EXPECT_EQ(decoded.status, RpcStatus::kOk);
  EXPECT_EQ(decoded.queue_ns, resp.queue_ns);
  EXPECT_EQ(decoded.solve_ns, resp.solve_ns);
  EXPECT_EQ(decoded.applicants, 5u);
  EXPECT_EQ(decoded.matching_size, 3u);
  ASSERT_TRUE(decoded.matching.has_value());
  EXPECT_TRUE(*decoded.matching == m);
  EXPECT_FALSE(decoded.count.has_value());
  EXPECT_FALSE(decoded.check.has_value());
}

TEST(FrameCodec, CountResponseRoundTrip) {
  ResponseFrame resp;
  resp.request_id = 7;
  resp.mode_raw = static_cast<std::uint8_t>(engine::Mode::kCount);
  resp.status = RpcStatus::kOk;
  resp.count = 0xdeadbeefcafeULL;

  const auto body = body_of(encode_response_frame(resp));
  const auto decoded = decode_response_frame(body.data(), body.size());
  EXPECT_EQ(decoded.status, RpcStatus::kOk);
  ASSERT_TRUE(decoded.count.has_value());
  EXPECT_EQ(*decoded.count, 0xdeadbeefcafeULL);
}

TEST(FrameCodec, CheckResponseRoundTripBothStatuses) {
  engine::CheckReport report;
  report.applicants = 31;
  report.posts = 77;
  report.strict = true;
  report.admits_popular = true;
  report.size = 29;
  report.count = 12;

  for (const auto status : {RpcStatus::kOk, RpcStatus::kNoSolution}) {
    ResponseFrame resp;
    resp.request_id = 9;
    resp.mode_raw = static_cast<std::uint8_t>(engine::Mode::kCheck);
    resp.status = status;
    resp.check = report;

    const auto body = body_of(encode_response_frame(resp));
    const auto decoded = decode_response_frame(body.data(), body.size());
    EXPECT_EQ(decoded.status, status);
    ASSERT_TRUE(decoded.check.has_value());
    EXPECT_EQ(decoded.check->applicants, report.applicants);
    EXPECT_EQ(decoded.check->posts, report.posts);
    EXPECT_EQ(decoded.check->strict, report.strict);
    EXPECT_EQ(decoded.check->admits_popular, report.admits_popular);
    EXPECT_EQ(decoded.check->size, report.size);
    EXPECT_EQ(decoded.check->count, report.count);
  }
}

TEST(FrameCodec, ErrorResponseRoundTrip) {
  const auto resp = make_error_response(99, kModeUnknown, RpcStatus::kMalformedFrame,
                                        "truncated instance");
  const auto body = body_of(encode_response_frame(resp));
  const auto decoded = decode_response_frame(body.data(), body.size());
  EXPECT_EQ(decoded.request_id, 99u);
  EXPECT_EQ(decoded.mode_raw, kModeUnknown);
  EXPECT_EQ(decoded.status, RpcStatus::kMalformedFrame);
  EXPECT_EQ(decoded.error, "truncated instance");
  EXPECT_FALSE(decoded.mode().has_value());
}

/// The wire numbering is pinned: every code keeps its value and name, and
/// every engine status maps to the code it always had — code 3 stays
/// reserved (decodable, never sent by a v1 server).
TEST(Frame, EveryWireStatusRoundTrips) {
  const std::pair<std::uint8_t, std::string_view> wire[] = {
      {0, "ok"},           {1, "no-solution"},  {2, "deadline-expired"}, {3, "cancelled"},
      {4, "invalid-request"}, {5, "solver-error"}, {6, "rejected"},      {7, "malformed-frame"},
      {8, "unsupported-mode"}, {9, "overloaded"}};
  const auto mode_raw = static_cast<std::uint8_t>(engine::Mode::kCount);
  for (const auto& [code, name] : wire) {
    SCOPED_TRACE(name);
    const auto status = static_cast<RpcStatus>(code);
    EXPECT_EQ(rpc_status_name(status), name);
    const auto body =
        body_of(encode_response_frame(make_error_response(7, mode_raw, status, "why")));
    const auto decoded = decode_response_frame(body.data(), body.size());
    EXPECT_EQ(static_cast<std::uint8_t>(decoded.status), code);
    EXPECT_EQ(rpc_status_name(decoded.status), name);
  }

  EXPECT_EQ(static_cast<std::uint8_t>(to_rpc_status(engine::Status::kOk)), 0u);
  EXPECT_EQ(static_cast<std::uint8_t>(to_rpc_status(engine::Status::kNoSolution)), 1u);
  EXPECT_EQ(static_cast<std::uint8_t>(to_rpc_status(engine::Status::kDeadlineExpired)), 2u);
  EXPECT_EQ(static_cast<std::uint8_t>(to_rpc_status(engine::Status::kInvalid)), 4u);
  EXPECT_EQ(static_cast<std::uint8_t>(to_rpc_status(engine::Status::kError)), 5u);
}

TEST(FrameCodec, RejectsWrongFrameType) {
  const auto inst = sample_instance(3);
  RequestHead head;
  head.request_id = 1;
  head.mode_raw = 0;
  auto body = body_of(encode_request_frame(head, inst));
  EXPECT_THROW(decode_response_frame(body.data(), body.size()), NetError);
  body[0] = static_cast<std::uint8_t>(FrameType::kResponse);
  EXPECT_THROW(decode_request_head(body.data(), body.size()), NetError);
}

TEST(FrameCodec, RejectsTrailingBytes) {
  ResponseFrame resp;
  resp.request_id = 1;
  resp.mode_raw = static_cast<std::uint8_t>(engine::Mode::kCount);
  resp.status = RpcStatus::kOk;
  resp.count = 5;
  auto body = body_of(encode_response_frame(resp));
  body.push_back(0);
  EXPECT_THROW(decode_response_frame(body.data(), body.size()), NetError);
}

/// Framing over a real socket: hello both ways, then frames delimited by
/// their length prefixes, then clean EOF.
TEST(FrameCodec, SocketFramingAndHello) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Socket a(fds[0]);
  Socket b(fds[1]);

  send_hello(a);
  EXPECT_TRUE(expect_hello(b));

  const auto inst = sample_instance(11);
  RequestHead head;
  head.request_id = 5;
  head.mode_raw = 0;
  const auto frame = encode_request_frame(head, inst);
  a.send_all(frame.data(), frame.size());
  a.send_all(frame.data(), frame.size());
  a.close();

  std::vector<std::uint8_t> body;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(read_frame_body(b, body));
    EXPECT_EQ(body.size(), frame.size() - 4);
    EXPECT_EQ(decode_request_head(body.data(), body.size()).request_id, 5u);
  }
  EXPECT_FALSE(read_frame_body(b, body));  // clean EOF at a frame boundary
}

TEST(FrameCodec, SocketRejectsBadHelloAndOversizedFrame) {
  {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket a(fds[0]);
    Socket b(fds[1]);
    const char junk[12] = "NOTNCPMRPC!";
    a.send_all(junk, sizeof(junk));
    EXPECT_THROW(expect_hello(b), NetError);
  }
  {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket a(fds[0]);
    Socket b(fds[1]);
    const std::uint8_t oversized[4] = {0xff, 0xff, 0xff, 0xff};  // > kMaxFrameBody
    a.send_all(oversized, sizeof(oversized));
    std::vector<std::uint8_t> body;
    EXPECT_THROW(read_frame_body(b, body), NetError);
  }
  {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Socket a(fds[0]);
    Socket b(fds[1]);
    const std::uint8_t truncated[6] = {32, 0, 0, 0, 1, 2};  // promises 32, sends 2
    a.send_all(truncated, sizeof(truncated));
    a.close();
    std::vector<std::uint8_t> body;
    EXPECT_THROW(read_frame_body(b, body), NetError);  // EOF mid-frame
  }
}

}  // namespace
}  // namespace ncpm::net
