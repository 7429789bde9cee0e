#pragma once
// ncpm-binary v1 — the length-prefixed binary wire format.
//
// The text formats of io.hpp are for humans; a batch engine ingesting
// millions of instances should not pay a tokenizer. ncpm-binary v1 is a
// stream of self-delimiting records behind a versioned header, every
// integer little-endian:
//
//   header   : magic "NCPMBIN1" (8 bytes), u32 version = 1
//   record   : u8 type (1 = instance, 2 = matching),
//              u64 payload_size, payload_size bytes of payload
//   instance : u32 applicants, u32 posts, u8 flags (bit 0 = last resorts),
//              then per applicant: u32 group_count, per tie group:
//              u32 group_size, group_size * u32 post ids
//   matching : u32 n_left, u32 n_right, u32 pair_count,
//              pair_count * (u32 left, u32 right)
//
// Records are length-prefixed so a reader can stream, skip, or fan out
// records without parsing payloads it does not need. The reader is strict:
// header and version must match, counts are bounded (same 10M format bound
// as the text reader), every payload read is bounds-checked against the
// declared payload size, a record whose payload ends early is "truncated",
// and one that ends late is "trailing bytes" — nothing is silently dropped.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "matching/matching.hpp"

namespace ncpm::io {

inline constexpr std::uint32_t kBinaryVersion = 1;
/// 8-byte stream magic.
inline constexpr char kBinaryMagic[8] = {'N', 'C', 'P', 'M', 'B', 'I', 'N', '1'};

enum class BinaryRecord : std::uint8_t {
  kInstance = 1,
  kMatching = 2,
};

/// Magic + version. Call once per stream, before any record.
void write_binary_header(std::ostream& out);
void write_binary_instance(std::ostream& out, const core::Instance& inst);
void write_binary_matching(std::ostream& out, const matching::Matching& m);

/// Streaming reader. Construction validates the header; `peek()` then
/// yields record types until a clean end-of-stream. All failures throw
/// std::runtime_error with an "io-binary:" message.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in);

  /// Type of the next record, or std::nullopt at a clean end-of-stream.
  /// Reads (and length-validates) the record into an internal buffer.
  std::optional<BinaryRecord> peek();

  /// Consume the pending record (peek() is called implicitly if needed).
  /// Throws if the next record has a different type.
  core::Instance read_instance();
  matching::Matching read_matching();

  /// Discard the pending record without parsing its payload.
  void skip();

 private:
  void require(BinaryRecord type, const char* what);

  std::istream& in_;
  std::optional<BinaryRecord> pending_;
  std::vector<std::uint8_t> payload_;
};

/// Single-record payload codecs: the byte layout of one record's payload
/// with no stream header and no record header around it. This is the unit
/// ncpm-rpc v1 frames embed (src/net/frame.hpp), so the socket protocol and
/// the batch-file format share one serialisation and cannot diverge. The
/// instance decoder reads the payload straight into the CSR arrays of
/// core::Instance::from_csr (no per-list or per-group allocation) and
/// reserves no more entries than the payload can hold. Every rejection,
/// including the range, duplicate and empty-list checks from_csr makes,
/// is a std::runtime_error whose message starts "io-binary: ".
std::string encode_instance_payload(const core::Instance& inst);
core::Instance decode_instance_payload(const std::uint8_t* data, std::size_t size);
std::string encode_matching_payload(const matching::Matching& m);
matching::Matching decode_matching_payload(const std::uint8_t* data, std::size_t size);

/// Whole-stream convenience: header + every record, which must all be
/// instances (the batch file the CLI's `batch` subcommand consumes).
std::vector<core::Instance> read_binary_instances(std::istream& in);

/// header + one instance record per element, as a string (tests, CLI pack).
std::string write_binary_instances(const std::vector<core::Instance>& instances);

}  // namespace ncpm::io
