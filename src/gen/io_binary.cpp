#include "gen/io_binary.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "gen/tie_groups.hpp"

namespace ncpm::io {

namespace {

// Same format bound as the text reader: rejects absurd counts before they
// drive multi-gigabyte allocations.
constexpr std::uint64_t kMaxCount = 10'000'000;
// No legal record (10M applicants, bounded lists) approaches this.
constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 31;
// A lying payload_size fails at EOF after at most one chunk, not after a
// payload-sized allocation.
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("io-binary: " + what);
}

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void write_record(std::ostream& out, BinaryRecord type, const std::string& payload) {
  std::string header;
  put_u8(header, static_cast<std::uint8_t>(type));
  put_u64(header, payload.size());
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) fail("write failed");
}

/// Bounds-checked little-endian cursor over one record payload.
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
  std::uint32_t count(const char* what) {
    const auto v = u32(what);
    if (v > kMaxCount) fail(std::string(what) + " out of range");
    return v;
  }
  void finish(const char* what) const {
    if (pos_ != size_) fail(std::string("trailing bytes in ") + what + " record");
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (size_ - pos_ < n) fail(std::string("truncated ") + what);
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_instance_payload(const core::Instance& inst) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(inst.num_applicants()));
  put_u32(payload, static_cast<std::uint32_t>(inst.num_posts()));
  put_u8(payload, inst.has_last_resorts() ? 1 : 0);
  for (std::int32_t a = 0; a < inst.num_applicants(); ++a) {
    const auto posts = inst.posts_of(a);
    // Ranks step by 0 or 1 from 1, so the group count is the last rank; the
    // groups share the text writer's run detection, so the two cannot diverge.
    put_u32(payload, static_cast<std::uint32_t>(inst.num_ranks(a)));
    detail::for_each_tie_group(inst.ranks_of(a), [&](std::size_t i, std::size_t j) {
      put_u32(payload, static_cast<std::uint32_t>(j - i + 1));
      for (std::size_t k = i; k <= j; ++k) {
        put_u32(payload, static_cast<std::uint32_t>(posts[k]));
      }
    });
  }
  return payload;
}

std::string encode_matching_payload(const matching::Matching& m) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(m.n_left()));
  put_u32(payload, static_cast<std::uint32_t>(m.n_right()));
  put_u32(payload, static_cast<std::uint32_t>(m.size()));
  for (std::int32_t l = 0; l < m.n_left(); ++l) {
    if (!m.left_matched(l)) continue;
    put_u32(payload, static_cast<std::uint32_t>(l));
    put_u32(payload, static_cast<std::uint32_t>(m.right_of(l)));
  }
  return payload;
}

core::Instance decode_instance_payload(const std::uint8_t* data, std::size_t size) {
  Cursor cur(data, size);
  const auto n_a = cur.count("applicant count");
  const auto n_p = cur.count("post count");
  const bool last_resorts = (cur.u8("flags") & 1) != 0;
  // Every applicant occupies at least its u32 group count, so a header
  // whose applicant count cannot fit in the declared payload is rejected
  // before the count drives any allocation.
  if ((size - 9) / 4 < n_a) fail("truncated instance");
  std::vector<std::size_t> offsets{0};
  offsets.reserve(std::size_t{n_a} + 1);
  // Exact for strict lists, where every entry is a one-post group (8
  // bytes); tied lists grow past it only as their entries arrive, so a
  // lying size runs out of payload, never out of memory.
  const std::size_t strict_entries = ((size - 9) / 4 - n_a) / 2;
  std::vector<std::int32_t> posts;
  std::vector<std::int32_t> ranks;
  posts.reserve(strict_entries);
  ranks.reserve(strict_entries);
  for (std::uint32_t a = 0; a < n_a; ++a) {
    const auto n_groups = cur.u32("group count");
    for (std::uint32_t g = 0; g < n_groups; ++g) {
      const auto n_posts = cur.u32("tie-group size");
      if (n_posts == 0) fail("empty tie group");
      for (std::uint32_t i = 0; i < n_posts; ++i) {
        posts.push_back(static_cast<std::int32_t>(cur.u32("post id")));
        ranks.push_back(static_cast<std::int32_t>(g) + 1);
      }
    }
    offsets.push_back(posts.size());
  }
  cur.finish("instance");
  // from_csr's range, duplicate and empty-list rejections become this
  // format's documented error.
  try {
    return core::Instance::from_csr(static_cast<std::int32_t>(n_p), std::move(offsets),
                                    std::move(posts), std::move(ranks), last_resorts);
  } catch (const std::logic_error& e) {
    fail(e.what());
  }
}

matching::Matching decode_matching_payload(const std::uint8_t* data, std::size_t size) {
  Cursor cur(data, size);
  const auto n_left = cur.count("left count");
  const auto n_right = cur.count("right count");
  const auto n_pairs = cur.u32("pair count");
  if (n_pairs > n_left) fail("pair count out of range");
  matching::Matching m(static_cast<std::int32_t>(n_left), static_cast<std::int32_t>(n_right));
  for (std::uint32_t i = 0; i < n_pairs; ++i) {
    const auto l = cur.u32("pair left");
    const auto r = cur.u32("pair right");
    if (l >= n_left || r >= n_right) fail("matching pair out of range");
    if (m.left_matched(static_cast<std::int32_t>(l)) ||
        m.right_matched(static_cast<std::int32_t>(r))) {
      fail("matching endpoint claimed twice");
    }
    m.match(static_cast<std::int32_t>(l), static_cast<std::int32_t>(r));
  }
  cur.finish("matching");
  return m;
}

void write_binary_header(std::ostream& out) {
  std::string header(kBinaryMagic, sizeof(kBinaryMagic));
  put_u32(header, kBinaryVersion);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!out) fail("write failed");
}

void write_binary_instance(std::ostream& out, const core::Instance& inst) {
  write_record(out, BinaryRecord::kInstance, encode_instance_payload(inst));
}

void write_binary_matching(std::ostream& out, const matching::Matching& m) {
  write_record(out, BinaryRecord::kMatching, encode_matching_payload(m));
}

BinaryReader::BinaryReader(std::istream& in) : in_(in) {
  char magic[sizeof(kBinaryMagic)];
  in_.read(magic, sizeof(magic));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(magic)) ||
      std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    fail("bad magic (not an ncpm-binary stream)");
  }
  char vbytes[4];
  in_.read(vbytes, sizeof(vbytes));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(vbytes))) fail("truncated header");
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(vbytes[i])) << (8 * i);
  }
  if (version != kBinaryVersion) fail("unsupported version " + std::to_string(version));
}

std::optional<BinaryRecord> BinaryReader::peek() {
  if (pending_.has_value()) return pending_;
  const int type_byte = in_.get();
  if (type_byte == std::istream::traits_type::eof()) {
    // Only a true end-of-stream ends the record loop; a failed/bad stream
    // (I/O error) must not masquerade as a shorter batch.
    if (in_.bad() || !in_.eof()) fail("stream error at record boundary");
    return std::nullopt;  // clean end
  }
  if (type_byte != static_cast<int>(BinaryRecord::kInstance) &&
      type_byte != static_cast<int>(BinaryRecord::kMatching)) {
    fail("unknown record type " + std::to_string(type_byte));
  }
  char lbytes[8];
  in_.read(lbytes, sizeof(lbytes));
  if (in_.gcount() != static_cast<std::streamsize>(sizeof(lbytes))) {
    fail("truncated record header");
  }
  std::uint64_t size = 0;
  for (int i = 0; i < 8; ++i) {
    size |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(lbytes[i])) << (8 * i);
  }
  if (size > kMaxPayload) fail("payload size out of range");
  payload_.clear();
  payload_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(size, kReadChunk)));
  std::uint64_t remaining = size;
  while (remaining > 0) {
    const auto chunk = static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kReadChunk));
    const auto old = payload_.size();
    payload_.resize(old + chunk);
    in_.read(reinterpret_cast<char*>(payload_.data() + old), static_cast<std::streamsize>(chunk));
    if (in_.gcount() != static_cast<std::streamsize>(chunk)) fail("truncated record payload");
    remaining -= chunk;
  }
  pending_ = static_cast<BinaryRecord>(type_byte);
  return pending_;
}

void BinaryReader::require(BinaryRecord type, const char* what) {
  const auto next = peek();
  if (!next.has_value()) fail(std::string("end of stream, expected ") + what);
  if (*next != type) fail(std::string("record type mismatch, expected ") + what);
}

core::Instance BinaryReader::read_instance() {
  require(BinaryRecord::kInstance, "instance");
  pending_.reset();
  return decode_instance_payload(payload_.data(), payload_.size());
}

matching::Matching BinaryReader::read_matching() {
  require(BinaryRecord::kMatching, "matching");
  pending_.reset();
  return decode_matching_payload(payload_.data(), payload_.size());
}

void BinaryReader::skip() {
  if (!pending_.has_value() && !peek().has_value()) fail("end of stream, nothing to skip");
  pending_.reset();
}

std::vector<core::Instance> read_binary_instances(std::istream& in) {
  BinaryReader reader(in);
  std::vector<core::Instance> instances;
  while (const auto type = reader.peek()) {
    if (*type != BinaryRecord::kInstance) fail("batch stream holds a non-instance record");
    instances.push_back(reader.read_instance());
  }
  return instances;
}

std::string write_binary_instances(const std::vector<core::Instance>& instances) {
  std::ostringstream out;
  write_binary_header(out);
  for (const auto& inst : instances) write_binary_instance(out, inst);
  return out.str();
}

}  // namespace ncpm::io
