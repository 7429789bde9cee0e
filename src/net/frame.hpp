#pragma once
// ncpm-rpc v1 — the framed request/response protocol the server speaks.
//
// A connection opens with a 12-byte hello in each direction (8-byte magic
// "NCPMRPC1" + u32 version, little-endian, client first). After that both
// directions carry length-prefixed frames:
//
//   frame    : u32 body_size, then body_size bytes of body
//   request  : u8 type = 1, u64 request_id, u8 mode, u64 deadline_ns,
//              then an ncpm-binary v1 instance record payload
//   response : u8 type = 2, u64 request_id, u8 mode (echoed; 0xff when the
//              request was unparseable), u8 status, u64 queue_ns,
//              u64 solve_ns, then a status/mode-dependent payload
//   ping     : u8 type = 3, u64 token (client -> server liveness probe)
//   pong     : u8 type = 4, u64 token echoed verbatim; answered at the
//              protocol layer, before the engine, without taking a slot
//   stats    : u8 type = 5, u64 token, u8 flags (client -> server metrics
//              probe); answered like ping — inline, slot-free
//   stats-r  : u8 type = 6, u64 token, then a versioned metrics snapshot
//              (net/stats_frame.hpp carries the codec)
//
// request_id is chosen by the client and echoed verbatim — responses may
// come back in any order (the server writes each one as its solve
// resolves), and the id is the only correlation key. deadline_ns is a
// relative budget from the moment the server reads the frame (client and
// server clocks never meet); 0 means no deadline. The instance payload is
// exactly io_binary's record payload (io::encode_instance_payload), so the
// socket protocol and the batch-file format share one serialisation.
//
// Response payloads: matching modes return u32 applicants, u64 size, then
// an ncpm-binary matching record payload; count returns u64; check returns
// a fixed 25-byte report; error statuses carry a UTF-8 message. The full
// byte-level tables live in docs/ncpm-rpc-v1.md.
//
// Framing errors vs payload errors: a frame whose length prefix or type is
// nonsense leaves the stream unsyncable and the connection must die, but a
// well-delimited frame whose *payload* fails to parse costs only an error
// response — the next frame proceeds normally. decode_request_head /
// decode_request_instance are split so the server can salvage the request
// id (for the error response) from a frame whose payload is garbage.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "engine/engine.hpp"
#include "matching/matching.hpp"
#include "net/socket.hpp"

namespace ncpm::net {

inline constexpr char kRpcMagic[8] = {'N', 'C', 'P', 'M', 'R', 'P', 'C', '1'};
inline constexpr std::uint32_t kRpcVersion = 1;
/// Hard cap on one frame body; same order as io_binary's record-payload cap.
inline constexpr std::uint32_t kMaxFrameBody = std::uint32_t{1} << 31;
/// Mode byte echoed when the request's own mode could not be parsed.
inline constexpr std::uint8_t kModeUnknown = 0xff;

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  kPing = 3,  ///< keepalive probe (client -> server): u8 type + u64 token
  kPong = 4,  ///< keepalive answer (server -> client): token echoed verbatim
  kStatsRequest = 5,   ///< metrics probe (client -> server): type + token + flags
  kStatsResponse = 6,  ///< metrics snapshot (server -> client), token echoed
};

/// Wire status of one response. Codes 0-2, 4 and 5 carry an engine::Status;
/// the rest are protocol-level failures that never reached the engine. The
/// retryability taxonomy lives in docs/ncpm-rpc-v1.md, "Failure semantics".
enum class RpcStatus : std::uint8_t {
  kOk = 0,
  kNoSolution = 1,
  kDeadlineExpired = 2,
  kCancelled = 3,        ///< reserved: a v1 server never sends it; clients still decode it
  kInvalidRequest = 4,
  kSolverError = 5,
  kRejected = 6,         ///< server shutting down before the request ran
  kMalformedFrame = 7,   ///< request frame or instance payload failed to parse
  kUnsupportedMode = 8,  ///< mode tag unknown or not served over rpc
  kOverloaded = 9,       ///< admission control shed the request; server is live — retry
};

std::string_view rpc_status_name(RpcStatus status);
RpcStatus to_rpc_status(engine::Status status);

/// Fixed-offset request prefix — parseable even when the payload is not.
struct RequestHead {
  std::uint64_t request_id = 0;
  std::uint8_t mode_raw = 0;
  std::uint64_t deadline_ns = 0;  ///< budget from server receipt; 0 = none
};
/// type + request_id + mode + deadline_ns.
inline constexpr std::size_t kRequestHeadSize = 1 + 8 + 1 + 8;
/// type + request_id + mode + status + queue_ns + solve_ns.
inline constexpr std::size_t kResponseHeadSize = 1 + 8 + 1 + 1 + 8 + 8;
/// type + token — a complete ping/pong body.
inline constexpr std::size_t kKeepaliveBodySize = 1 + 8;

/// One decoded response. Which optionals are populated follows the status
/// and mode: matching for kOk matching modes, count for kOk count, check
/// for kOk/kNoSolution check, error for the failure statuses.
struct ResponseFrame {
  std::uint64_t request_id = 0;
  std::uint8_t mode_raw = kModeUnknown;
  RpcStatus status = RpcStatus::kMalformedFrame;
  std::uint64_t queue_ns = 0;
  std::uint64_t solve_ns = 0;
  std::uint32_t applicants = 0;     ///< matching modes
  std::uint64_t matching_size = 0;  ///< matching modes (real posts only)
  std::optional<matching::Matching> matching;
  std::optional<std::uint64_t> count;
  std::optional<engine::CheckReport> check;
  std::string error;

  bool ok() const noexcept { return status == RpcStatus::kOk; }
  /// Valid engine mode, or nullopt when mode_raw is kModeUnknown/garbage.
  std::optional<engine::Mode> mode() const noexcept {
    if (mode_raw >= engine::kNumModes) return std::nullopt;
    return static_cast<engine::Mode>(mode_raw);
  }
};

/// Encoders return the complete wire bytes (u32 length prefix included).
std::string encode_request_frame(const RequestHead& head, const core::Instance& inst);
std::string encode_response_frame(const ResponseFrame& resp);
/// Build the response frame for one engine result (server write-back path).
ResponseFrame make_response(std::uint64_t request_id, std::uint8_t mode_raw,
                            engine::Result&& result);
/// Protocol-level error response that never touched the engine.
ResponseFrame make_error_response(std::uint64_t request_id, std::uint8_t mode_raw,
                                  RpcStatus status, std::string message);

/// Decoders take one frame body (length prefix stripped) and throw
/// NetError(kProtocol) on malformed head bytes; decode_request_instance
/// additionally propagates io-binary's std::runtime_error for a payload
/// that fails instance validation.
RequestHead decode_request_head(const std::uint8_t* body, std::size_t size);
core::Instance decode_request_instance(const std::uint8_t* body, std::size_t size);
ResponseFrame decode_response_frame(const std::uint8_t* body, std::size_t size);

/// Complete wire bytes (length prefix included) of a ping/pong keepalive
/// frame. `type` must be kPing or kPong.
std::string encode_keepalive_frame(FrameType type, std::uint64_t token);
/// The token when `body` is exactly a keepalive body of `type`; nullopt for
/// anything else (the server uses this to recognise pings without touching
/// the request decoder; it never throws).
std::optional<std::uint64_t> parse_keepalive_body(const std::uint8_t* body, std::size_t size,
                                                  FrameType type) noexcept;

/// Hello exchange. expect_hello returns false on a clean EOF before any
/// hello byte and throws NetError(kProtocol) on a magic/version mismatch.
void send_hello(Socket& sock);
bool expect_hello(Socket& sock);

/// Read one frame body into `body` (cleared first; length prefix consumed
/// and validated against kMaxFrameBody). Returns false on clean EOF at a
/// frame boundary; throws NetError on truncation or an oversized length.
bool read_frame_body(Socket& sock, std::vector<std::uint8_t>& body);

}  // namespace ncpm::net
