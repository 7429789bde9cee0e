#include "net/frame.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "gen/io_binary.hpp"

namespace ncpm::net {

namespace {

// A lying body_size fails at EOF after at most one chunk, not after a
// frame-sized allocation (same trick as io_binary's record reader).
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

[[noreturn]] void fail(const std::string& what) { throw NetError(NetErrc::kProtocol, what); }

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// Bounds-checked little-endian cursor over one frame body.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8(const char* what) {
    need(1, what);
    return data_[pos_++];
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
  const std::uint8_t* rest(std::size_t& n) {
    n = size_ - pos_;
    return data_ + pos_;
  }
  std::string rest_string() {
    std::size_t n = 0;
    const auto* p = rest(n);
    pos_ = size_;
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  void finish(const char* what) const {
    if (pos_ != size_) fail(std::string("trailing bytes in ") + what + " frame");
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n) fail(std::string("truncated ") + what);
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

bool is_matching_mode(std::uint8_t mode_raw) {
  if (mode_raw >= engine::kNumModes) return false;
  switch (static_cast<engine::Mode>(mode_raw)) {
    case engine::Mode::kSolve:
    case engine::Mode::kMaxCard:
    case engine::Mode::kFair:
    case engine::Mode::kRankMaximal:
      return true;
    default:
      return false;
  }
}

/// Fixed 25-byte check-report payload.
void put_check(std::string& out, const engine::CheckReport& check) {
  put_u32(out, static_cast<std::uint32_t>(check.applicants));
  put_u32(out, static_cast<std::uint32_t>(check.posts));
  std::uint8_t flags = 0;
  if (check.strict) flags |= 1;
  if (check.admits_popular) flags |= 2;
  if (check.count.has_value()) flags |= 4;
  put_u8(out, flags);
  put_u64(out, static_cast<std::uint64_t>(check.size));
  put_u64(out, check.count.value_or(0));
}

engine::CheckReport get_check(Cursor& cur) {
  engine::CheckReport check;
  check.applicants = static_cast<std::int32_t>(cur.u32("check applicants"));
  check.posts = static_cast<std::int32_t>(cur.u32("check posts"));
  const auto flags = cur.u8("check flags");
  check.strict = (flags & 1) != 0;
  check.admits_popular = (flags & 2) != 0;
  check.size = static_cast<std::size_t>(cur.u64("check size"));
  const auto count = cur.u64("check count");
  if ((flags & 4) != 0) check.count = count;
  return check;
}

/// Prepend the u32 length to a finished body.
std::string with_length_prefix(const std::string& body) {
  if (body.size() > kMaxFrameBody) fail("frame body exceeds the protocol cap");
  std::string frame;
  frame.reserve(4 + body.size());
  put_u32(frame, static_cast<std::uint32_t>(body.size()));
  frame.append(body);
  return frame;
}

}  // namespace

std::string_view rpc_status_name(RpcStatus status) {
  switch (status) {
    case RpcStatus::kOk: return "ok";
    case RpcStatus::kNoSolution: return "no-solution";
    case RpcStatus::kDeadlineExpired: return "deadline-expired";
    case RpcStatus::kCancelled: return "cancelled";
    case RpcStatus::kInvalidRequest: return "invalid-request";
    case RpcStatus::kSolverError: return "solver-error";
    case RpcStatus::kRejected: return "rejected";
    case RpcStatus::kMalformedFrame: return "malformed-frame";
    case RpcStatus::kUnsupportedMode: return "unsupported-mode";
    case RpcStatus::kOverloaded: return "overloaded";
  }
  return "unknown";
}

RpcStatus to_rpc_status(engine::Status status) {
  switch (status) {
    case engine::Status::kOk: return RpcStatus::kOk;
    case engine::Status::kNoSolution: return RpcStatus::kNoSolution;
    case engine::Status::kDeadlineExpired: return RpcStatus::kDeadlineExpired;
    case engine::Status::kInvalid: return RpcStatus::kInvalidRequest;
    case engine::Status::kError: return RpcStatus::kSolverError;
  }
  return RpcStatus::kSolverError;
}

std::string encode_request_frame(const RequestHead& head, const core::Instance& inst) {
  std::string body;
  put_u8(body, static_cast<std::uint8_t>(FrameType::kRequest));
  put_u64(body, head.request_id);
  put_u8(body, head.mode_raw);
  put_u64(body, head.deadline_ns);
  body.append(io::encode_instance_payload(inst));
  return with_length_prefix(body);
}

std::string encode_response_frame(const ResponseFrame& resp) {
  std::string body;
  put_u8(body, static_cast<std::uint8_t>(FrameType::kResponse));
  put_u64(body, resp.request_id);
  put_u8(body, resp.mode_raw);
  put_u8(body, static_cast<std::uint8_t>(resp.status));
  put_u64(body, resp.queue_ns);
  put_u64(body, resp.solve_ns);
  switch (resp.status) {
    case RpcStatus::kOk:
      if (resp.mode_raw == static_cast<std::uint8_t>(engine::Mode::kCount)) {
        put_u64(body, resp.count.value_or(0));
      } else if (resp.mode_raw == static_cast<std::uint8_t>(engine::Mode::kCheck)) {
        put_check(body, resp.check.value_or(engine::CheckReport{}));
      } else if (is_matching_mode(resp.mode_raw) && resp.matching.has_value()) {
        put_u32(body, resp.applicants);
        put_u64(body, resp.matching_size);
        body.append(io::encode_matching_payload(*resp.matching));
      }
      break;
    case RpcStatus::kNoSolution:
      // check reports its statistics even when no popular matching exists.
      if (resp.mode_raw == static_cast<std::uint8_t>(engine::Mode::kCheck) &&
          resp.check.has_value()) {
        put_check(body, *resp.check);
      }
      break;
    default:
      body.append(resp.error);
      break;
  }
  return with_length_prefix(body);
}

ResponseFrame make_response(std::uint64_t request_id, std::uint8_t mode_raw,
                            engine::Result&& result) {
  ResponseFrame resp;
  resp.request_id = request_id;
  resp.mode_raw = mode_raw;
  resp.status = to_rpc_status(result.status);
  resp.queue_ns = static_cast<std::uint64_t>(result.queue_latency.count());
  resp.solve_ns = static_cast<std::uint64_t>(result.solve_time.count());
  resp.applicants = static_cast<std::uint32_t>(result.applicants < 0 ? 0 : result.applicants);
  resp.matching_size = result.matching_size;
  resp.matching = std::move(result.matching);
  resp.count = result.count;
  resp.check = result.check;
  resp.error = std::move(result.error);
  return resp;
}

ResponseFrame make_error_response(std::uint64_t request_id, std::uint8_t mode_raw,
                                  RpcStatus status, std::string message) {
  ResponseFrame resp;
  resp.request_id = request_id;
  resp.mode_raw = mode_raw;
  resp.status = status;
  resp.error = std::move(message);
  return resp;
}

RequestHead decode_request_head(const std::uint8_t* body, std::size_t size) {
  Cursor cur(body, size);
  if (cur.u8("frame type") != static_cast<std::uint8_t>(FrameType::kRequest)) {
    fail("frame is not a request");
  }
  RequestHead head;
  head.request_id = cur.u64("request id");
  head.mode_raw = cur.u8("mode tag");
  head.deadline_ns = cur.u64("deadline");
  return head;
}

core::Instance decode_request_instance(const std::uint8_t* body, std::size_t size) {
  if (size < kRequestHeadSize) fail("truncated request frame");
  return io::decode_instance_payload(body + kRequestHeadSize, size - kRequestHeadSize);
}

ResponseFrame decode_response_frame(const std::uint8_t* body, std::size_t size) {
  Cursor cur(body, size);
  if (cur.u8("frame type") != static_cast<std::uint8_t>(FrameType::kResponse)) {
    fail("frame is not a response");
  }
  ResponseFrame resp;
  resp.request_id = cur.u64("request id");
  resp.mode_raw = cur.u8("mode tag");
  const auto status_raw = cur.u8("status");
  if (status_raw > static_cast<std::uint8_t>(RpcStatus::kOverloaded)) {
    fail("unknown status code " + std::to_string(status_raw));
  }
  resp.status = static_cast<RpcStatus>(status_raw);
  resp.queue_ns = cur.u64("queue latency");
  resp.solve_ns = cur.u64("solve time");
  switch (resp.status) {
    case RpcStatus::kOk:
      if (resp.mode_raw == static_cast<std::uint8_t>(engine::Mode::kCount)) {
        resp.count = cur.u64("count");
        cur.finish("count response");
      } else if (resp.mode_raw == static_cast<std::uint8_t>(engine::Mode::kCheck)) {
        resp.check = get_check(cur);
        cur.finish("check response");
      } else if (is_matching_mode(resp.mode_raw)) {
        resp.applicants = cur.u32("applicants");
        resp.matching_size = cur.u64("matching size");
        std::size_t n = 0;
        const auto* payload = cur.rest(n);
        resp.matching = io::decode_matching_payload(payload, n);
      } else {
        fail("ok response with unserved mode tag " + std::to_string(resp.mode_raw));
      }
      break;
    case RpcStatus::kNoSolution: {
      std::size_t n = 0;
      cur.rest(n);
      if (resp.mode_raw == static_cast<std::uint8_t>(engine::Mode::kCheck) && n > 0) {
        resp.check = get_check(cur);
      }
      cur.finish("no-solution response");
      break;
    }
    default:
      resp.error = cur.rest_string();
      break;
  }
  return resp;
}

std::string encode_keepalive_frame(FrameType type, std::uint64_t token) {
  std::string body;
  put_u8(body, static_cast<std::uint8_t>(type));
  put_u64(body, token);
  return with_length_prefix(body);
}

std::optional<std::uint64_t> parse_keepalive_body(const std::uint8_t* body, std::size_t size,
                                                  FrameType type) noexcept {
  if (size != kKeepaliveBodySize || body[0] != static_cast<std::uint8_t>(type)) {
    return std::nullopt;
  }
  std::uint64_t token = 0;
  for (int i = 0; i < 8; ++i) token |= static_cast<std::uint64_t>(body[1 + i]) << (8 * i);
  return token;
}

void send_hello(Socket& sock) {
  std::string hello(kRpcMagic, sizeof(kRpcMagic));
  put_u32(hello, kRpcVersion);
  sock.send_all(hello.data(), hello.size());
}

bool expect_hello(Socket& sock) {
  std::uint8_t hello[sizeof(kRpcMagic) + 4];
  if (!sock.recv_exact(hello, sizeof(hello))) return false;
  if (std::memcmp(hello, kRpcMagic, sizeof(kRpcMagic)) != 0) {
    fail("bad hello magic (not an ncpm-rpc peer)");
  }
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(hello[sizeof(kRpcMagic) + i]) << (8 * i);
  }
  if (version != kRpcVersion) fail("unsupported rpc version " + std::to_string(version));
  return true;
}

bool read_frame_body(Socket& sock, std::vector<std::uint8_t>& body) {
  std::uint8_t lbytes[4];
  if (!sock.recv_exact(lbytes, sizeof(lbytes))) return false;
  std::uint32_t size = 0;
  for (int i = 0; i < 4; ++i) size |= static_cast<std::uint32_t>(lbytes[i]) << (8 * i);
  if (size > kMaxFrameBody) fail("frame body size out of range");
  body.clear();
  body.reserve(std::min<std::size_t>(size, kReadChunk));
  std::size_t remaining = size;
  while (remaining > 0) {
    const auto chunk = std::min<std::size_t>(remaining, kReadChunk);
    const auto old = body.size();
    body.resize(old + chunk);
    if (!sock.recv_exact(body.data() + old, chunk)) {
      throw NetError(NetErrc::kClosed, "peer closed the connection mid-frame");
    }
    remaining -= chunk;
  }
  return true;
}

}  // namespace ncpm::net
