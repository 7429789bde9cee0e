#pragma once
// ncpm-rpc v1 stats frames (types 5/6) — the wire form of an obs snapshot.
//
// A stats request is a fixed 10-byte body, recognised inline by the server
// exactly like ping (before the request decoder, never consuming a
// backpressure slot):
//
//   stats request  : u8 type = 5, u64 token, u8 flags
//                    (flags bit 0 = include sampled trace spans)
//   stats response : u8 type = 6, u64 token echoed, u32 snapshot_version,
//                    u64 uptime_ns, then counter / gauge / histogram /
//                    span sections (byte-level rows in docs/ncpm-rpc-v1.md)
//
// Strings are u16 length + bytes; histogram buckets ship sparse, as
// (u8 bucket_index, u64 count) pairs for the non-empty buckets only. The
// decoded form is a regular obs::Snapshot, so the CLI renders a remote
// snapshot with the same render_prometheus / render_json used in-process.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace ncpm::net {

/// type + token + flags — a complete stats-request body.
inline constexpr std::size_t kStatsRequestBodySize = 1 + 8 + 1;
/// Bit 0 of the request flags: echo the trace ring's sampled spans.
inline constexpr std::uint8_t kStatsFlagTraces = 0x01;
/// Version tag leading every stats response payload. Version 2 span rows
/// carry instance digest, payload size, and a sparse per-phase solver
/// breakdown; the decoder accepts this version only.
inline constexpr std::uint32_t kStatsSnapshotVersion = 2;

struct StatsRequest {
  std::uint64_t token = 0;
  std::uint8_t flags = 0;
};

/// One decoded stats response.
struct StatsReply {
  std::uint64_t token = 0;
  std::uint32_t version = 0;
  obs::Snapshot snapshot;
  std::vector<obs::TraceSpan> spans;
};

/// Complete wire bytes (length prefix included) of a stats request.
std::string encode_stats_request_frame(std::uint64_t token, std::uint8_t flags);

/// The request when `body` is exactly a stats-request body; nullopt for
/// anything else (servers use this to recognise stats probes without
/// touching the request decoder; it never throws).
std::optional<StatsRequest> parse_stats_request_body(const std::uint8_t* body,
                                                     std::size_t size) noexcept;

/// Complete wire bytes (length prefix included) of a stats response.
std::string encode_stats_response_frame(std::uint64_t token, const obs::Snapshot& snap,
                                        const std::vector<obs::TraceSpan>& spans);

/// Decodes one stats-response body (length prefix stripped). Throws
/// NetError(kProtocol) on a type/size/version mismatch or truncation.
StatsReply decode_stats_response_body(const std::uint8_t* body, std::size_t size);

}  // namespace ncpm::net
