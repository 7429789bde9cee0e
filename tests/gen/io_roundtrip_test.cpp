// Randomized write -> read -> identical round-trips for every io format
// (text and ncpm-binary v1), plus rejection of the malformed inputs the
// hardened readers must refuse.

#include "gen/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "gen/io_binary.hpp"
#include "gen/stable_generators.hpp"
#include "stable/gale_shapley.hpp"

namespace ncpm::io {
namespace {

void expect_same_instance(const core::Instance& a, const core::Instance& b) {
  ASSERT_EQ(a.num_applicants(), b.num_applicants());
  ASSERT_EQ(a.num_posts(), b.num_posts());
  ASSERT_EQ(a.has_last_resorts(), b.has_last_resorts());
  ASSERT_EQ(a.strict_prefs(), b.strict_prefs());
  for (std::int32_t x = 0; x < a.num_applicants(); ++x) {
    const auto pa = a.posts_of(x);
    const auto pb = b.posts_of(x);
    ASSERT_EQ(std::vector<std::int32_t>(pa.begin(), pa.end()),
              std::vector<std::int32_t>(pb.begin(), pb.end()));
    const auto ra = a.ranks_of(x);
    const auto rb = b.ranks_of(x);
    ASSERT_EQ(std::vector<std::int32_t>(ra.begin(), ra.end()),
              std::vector<std::int32_t>(rb.begin(), rb.end()));
  }
}

class IoRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTrip, RandomStrictInstances) {
  for (std::uint64_t round = 0; round < 8; ++round) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 5 + static_cast<std::int32_t>(round) * 7;
    cfg.num_posts = 6 + static_cast<std::int32_t>(round) * 5;
    cfg.list_min = 1;
    cfg.list_max = 5;
    cfg.seed = GetParam() * 1000 + round;
    const auto inst = gen::random_strict_instance(cfg);
    expect_same_instance(inst, read_instance(write_instance(inst)));
  }
}

TEST_P(IoRoundTrip, RandomTiesInstances) {
  for (std::uint64_t round = 0; round < 8; ++round) {
    gen::TiesConfig cfg;
    cfg.num_applicants = 5 + static_cast<std::int32_t>(round) * 6;
    cfg.num_posts = 6 + static_cast<std::int32_t>(round) * 4;
    cfg.list_min = 1;
    cfg.list_max = 5;
    cfg.tie_prob = 0.5;
    cfg.seed = GetParam() * 1000 + round;
    const auto inst = gen::random_ties_instance(cfg);
    expect_same_instance(inst, read_instance(write_instance(inst)));
  }
}

TEST_P(IoRoundTrip, SolvableInstances) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 40;
  cfg.num_posts = 120;
  cfg.contention = 2.0;
  cfg.seed = GetParam();
  const auto inst = gen::solvable_strict_instance(cfg);
  expect_same_instance(inst, read_instance(write_instance(inst)));
}

TEST_P(IoRoundTrip, StableInstancesAndDerivedMatchings) {
  const auto n = 6 + static_cast<std::int32_t>(GetParam()) * 5;
  const auto inst = gen::random_stable_instance(n, GetParam());
  const auto back = read_stable_instance(write_stable_instance(inst));
  ASSERT_EQ(back.size(), inst.size());
  for (std::int32_t m = 0; m < n; ++m) {
    for (std::int32_t i = 0; i < n; ++i) {
      ASSERT_EQ(back.man_pref(m, i), inst.man_pref(m, i));
      ASSERT_EQ(back.woman_pref(m, i), inst.woman_pref(m, i));
    }
  }
  // Matchings round-trip through the pair list given the target shape.
  const auto m0 = stable::man_optimal(inst);
  matching::Matching as_matching(n, n);
  for (std::int32_t man = 0; man < n; ++man) {
    as_matching.match(man, m0.wife_of[static_cast<std::size_t>(man)]);
  }
  EXPECT_TRUE(read_matching(write_matching(as_matching), n, n) == as_matching);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTrip, ::testing::Values(1, 2, 3, 4, 5));

core::Instance binary_round_trip(const core::Instance& inst) {
  std::istringstream in(write_binary_instances({inst}));
  auto back = read_binary_instances(in);
  EXPECT_EQ(back.size(), 1u);
  return back.front();
}

// The acceptance bar for the wire format: for any instance, going through
// ncpm-binary v1 must land on the byte-identical text serialisation (and
// the binary bytes themselves must be stable under re-encoding).
TEST_P(IoRoundTrip, BinaryAgreesByteForByteWithText) {
  for (std::uint64_t round = 0; round < 6; ++round) {
    gen::StrictConfig strict_cfg;
    strict_cfg.num_applicants = 5 + static_cast<std::int32_t>(round) * 9;
    strict_cfg.num_posts = 7 + static_cast<std::int32_t>(round) * 6;
    strict_cfg.list_min = 1;
    strict_cfg.seed = GetParam() * 77 + round;
    const auto strict_inst = gen::random_strict_instance(strict_cfg);

    gen::TiesConfig ties_cfg;
    ties_cfg.num_applicants = 4 + static_cast<std::int32_t>(round) * 7;
    ties_cfg.num_posts = 6 + static_cast<std::int32_t>(round) * 5;
    ties_cfg.tie_prob = 0.5;
    ties_cfg.seed = GetParam() * 77 + round;
    const auto ties_inst = gen::random_ties_instance(ties_cfg);

    for (const auto* inst : {&strict_inst, &ties_inst}) {
      const auto back = binary_round_trip(*inst);
      expect_same_instance(*inst, back);
      EXPECT_EQ(write_instance(back), write_instance(*inst));
      EXPECT_EQ(write_binary_instances({back}), write_binary_instances({*inst}));
    }
  }
}

TEST_P(IoRoundTrip, BinaryBatchPreservesOrder) {
  std::vector<core::Instance> batch;
  for (std::uint64_t i = 0; i < 5; ++i) {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 10 + static_cast<std::int32_t>(i) * 5;
    cfg.num_posts = cfg.num_applicants * 3;
    cfg.seed = GetParam() * 31 + i;
    batch.push_back(gen::solvable_strict_instance(cfg));
  }
  std::istringstream in(write_binary_instances(batch));
  const auto back = read_binary_instances(in);
  ASSERT_EQ(back.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_same_instance(batch[i], back[i]);
}

TEST_P(IoRoundTrip, BinaryMatchingRoundTrip) {
  const auto n = 5 + static_cast<std::int32_t>(GetParam()) * 3;
  matching::Matching m(n, n + 2);
  for (std::int32_t l = 0; l < n; l += 2) m.match(l, (l + 3) % (n + 2));
  std::ostringstream out;
  write_binary_header(out);
  write_binary_matching(out, m);
  std::istringstream in(out.str());
  BinaryReader reader(in);
  ASSERT_EQ(reader.peek(), BinaryRecord::kMatching);
  EXPECT_TRUE(reader.read_matching() == m);
  EXPECT_FALSE(reader.peek().has_value());
}

TEST(IoMalformed, NegativeCountsRejected) {
  EXPECT_THROW(read_instance("ncpm-instance v1\napplicants -1 posts 2 last_resorts 1\n"),
               std::runtime_error);
  EXPECT_THROW(read_instance("ncpm-instance v1\napplicants 2 posts -5 last_resorts 1\n"),
               std::runtime_error);
  EXPECT_THROW(read_stable_instance("ncpm-stable v1\nn -3\n"), std::runtime_error);
}

TEST(IoMalformed, AbsurdCountsRejectedBeforeAllocation) {
  EXPECT_THROW(
      read_instance("ncpm-instance v1\napplicants 2147483647 posts 1 last_resorts 0\n"),
      std::runtime_error);
  EXPECT_THROW(read_stable_instance("ncpm-stable v1\nn 2147483647\n"), std::runtime_error);
}

TEST(IoMalformed, GarbagePostIdRejected) {
  EXPECT_THROW(read_instance("ncpm-instance v1\napplicants 1 posts 3 last_resorts 1\n0: 1 xyz\n"),
               std::runtime_error);
  EXPECT_THROW(read_instance("ncpm-instance v1\napplicants 1 posts 3 last_resorts 1\n0: 1 2z\n"),
               std::runtime_error);
  EXPECT_THROW(read_instance("ncpm-instance v1\napplicants 1 posts 3 last_resorts 1\n0: -2\n"),
               std::runtime_error);
}

TEST(IoMalformed, UnbalancedTieGroupsRejected) {
  const char* kPrefix = "ncpm-instance v1\napplicants 1 posts 4 last_resorts 1\n";
  EXPECT_THROW(read_instance(std::string(kPrefix) + "0: ( 1 2\n"), std::runtime_error);
  EXPECT_THROW(read_instance(std::string(kPrefix) + "0: 1 2 )\n"), std::runtime_error);
  EXPECT_THROW(read_instance(std::string(kPrefix) + "0: ( 1 ( 2 ) )\n"), std::runtime_error);
  EXPECT_THROW(read_instance(std::string(kPrefix) + "0: ( ) 1\n"), std::runtime_error);
}

TEST(IoMalformed, MatchingPairsValidated) {
  EXPECT_THROW(read_matching("ncpm-matching v1\n5 0\n", 2, 2), std::runtime_error);
  EXPECT_THROW(read_matching("ncpm-matching v1\n0 5\n", 2, 2), std::runtime_error);
  EXPECT_THROW(read_matching("ncpm-matching v1\n-1 0\n", 2, 2), std::runtime_error);
  // Two left vertices claiming one right vertex is a consistency error.
  EXPECT_THROW(read_matching("ncpm-matching v1\n0 1\n1 1\n", 2, 2), std::logic_error);
  // Trailing garbage must not silently truncate the pair list.
  EXPECT_THROW(read_matching("ncpm-matching v1\n0 0\ngarbage 1\n", 2, 2), std::runtime_error);
}

TEST(IoMalformed, TrailingContentRejected) {
  // Header/body mismatch: a third applicant line under "applicants 2".
  EXPECT_THROW(
      read_instance("ncpm-instance v1\napplicants 2 posts 2 last_resorts 1\n0: 0\n1: 1\n2: 0\n"),
      std::runtime_error);
  EXPECT_THROW(read_stable_instance(
                   "ncpm-stable v1\nn 1\nm0: 0\nw0: 0\nextra\n"),
               std::runtime_error);
  // Trailing whitespace and newlines stay acceptable.
  EXPECT_NO_THROW(
      read_instance("ncpm-instance v1\napplicants 2 posts 2 last_resorts 1\n0: 0\n1: 1\n\n  \n"));
}

TEST(IoMalformed, WrongApplicantLineHeaderRejected) {
  EXPECT_THROW(read_instance("ncpm-instance v1\napplicants 2 posts 2 last_resorts 1\n0: 0\n5: 1\n"),
               std::runtime_error);
}

// The text reader names the offending line in every rejection.
std::string read_instance_error(const std::string& text) {
  try {
    read_instance(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a parse failure for: " << text;
  return "";
}

TEST(IoMalformed, ErrorsNameTheOffendingLine) {
  EXPECT_NE(read_instance_error("ncpm-garbage v1\n").find("(line 1)"), std::string::npos);
  EXPECT_NE(read_instance_error("ncpm-instance v1\napplicants -1 posts 2 last_resorts 1\n")
                .find("(line 2)"),
            std::string::npos);
  EXPECT_NE(read_instance_error(
                "ncpm-instance v1\napplicants 2 posts 3 last_resorts 1\n0: 0\n1: bogus\n")
                .find("(line 4)"),
            std::string::npos);
  EXPECT_NE(read_instance_error(
                "ncpm-instance v1\napplicants 2 posts 3 last_resorts 1\n0: 0\n5: 1\n")
                .find("(line 4)"),
            std::string::npos);
  EXPECT_NE(read_instance_error(
                "ncpm-instance v1\napplicants 1 posts 3 last_resorts 1\n0: 0\nextra\n")
                .find("(line 4)"),
            std::string::npos);
  // Blank lines before the header still count toward the line numbering.
  EXPECT_NE(read_instance_error("\n\nncpm-instance v2\n").find("(line 3)"), std::string::npos);
}

TEST(IoMalformed, WhitespaceLayoutTolerated) {
  // The header is token-oriented: one-line headers and blank lines between
  // header and body parse exactly like the canonical layout.
  EXPECT_NO_THROW(read_instance("ncpm-instance v1 applicants 1 posts 2 last_resorts 1\n0: 0\n"));
  EXPECT_NO_THROW(
      read_instance("ncpm-instance v1\napplicants 1 posts 2 last_resorts 1\n\n0: 0\n"));
  // ... but trailing garbage on the header line of a zero-applicant
  // instance is still a document mismatch.
  EXPECT_THROW(
      read_instance("ncpm-instance v1 applicants 0 posts 2 last_resorts 1 garbage\n"),
      std::runtime_error);
  EXPECT_NO_THROW(read_instance("ncpm-instance v1 applicants 0 posts 2 last_resorts 1\n"));
}

// ----- ncpm-binary v1: the malformed streams the strict reader must refuse.

std::string valid_binary() {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 6;
  cfg.num_posts = 18;
  cfg.seed = 3;
  return write_binary_instances({gen::solvable_strict_instance(cfg)});
}

void expect_binary_rejected(const std::string& bytes, const char* what) {
  std::istringstream in(bytes);
  EXPECT_THROW(read_binary_instances(in), std::runtime_error) << what;
}

TEST(IoBinaryMalformed, TruncatedOrWrongHeader) {
  const auto good = valid_binary();
  expect_binary_rejected("", "empty stream");
  expect_binary_rejected(good.substr(0, 5), "magic cut short");
  expect_binary_rejected(good.substr(0, 10), "version cut short");
  auto bad_magic = good;
  bad_magic[0] = 'X';
  expect_binary_rejected(bad_magic, "wrong magic");
  auto bad_version = good;
  bad_version[8] = 9;  // version little-endian u32 at offset 8
  expect_binary_rejected(bad_version, "unsupported version");
}

TEST(IoBinaryMalformed, TruncatedRecords) {
  const auto good = valid_binary();
  // Record header (type + u64 size) starts at offset 12.
  expect_binary_rejected(good.substr(0, 13), "record size cut short");
  expect_binary_rejected(good.substr(0, 24), "payload cut short");
  expect_binary_rejected(good.substr(0, good.size() - 1), "last payload byte missing");
}

TEST(IoBinaryMalformed, OversizedCountsRejected) {
  // Hand-build: header + instance record claiming 2^31 applicants.
  std::string bytes(kBinaryMagic, sizeof(kBinaryMagic));
  const auto put_u32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  const auto put_u64 = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put_u32(1);                     // version
  bytes.push_back(1);             // record type: instance
  put_u64(9);                     // payload: 2 counts + flags
  put_u32(0x80000000u);           // applicants: absurd
  put_u32(1);                     // posts
  bytes.push_back(0);             // flags
  expect_binary_rejected(bytes, "absurd applicant count");

  // An in-bound applicant count that cannot fit the declared payload must
  // be rejected before it drives a quarter-gigabyte groups allocation.
  std::string tiny(kBinaryMagic, sizeof(kBinaryMagic));
  const auto put_u32_tiny = [&tiny](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) tiny.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put_u32_tiny(1);                // version
  tiny.push_back(1);              // instance record
  tiny.push_back(9);              // payload size u64 = 9: counts + flags only
  for (int i = 0; i < 7; ++i) tiny.push_back(0);
  put_u32_tiny(10'000'000);       // applicants: max the format allows
  put_u32_tiny(1);                // posts
  tiny.push_back(0);              // flags
  expect_binary_rejected(tiny, "applicant count exceeding payload");

  // An absurd declared payload size must be refused before any allocation.
  std::string huge(kBinaryMagic, sizeof(kBinaryMagic));
  huge += bytes.substr(sizeof(kBinaryMagic), 4);  // version
  huge.push_back(1);
  for (int i = 0; i < 8; ++i) huge.push_back(static_cast<char>(0xff));  // size = 2^64-1
  expect_binary_rejected(huge, "absurd payload size");
}

TEST(IoBinaryMalformed, TrailingBytesInRecordRejected) {
  // Grow the declared payload size by one and append a stray byte: the
  // parser must notice the record ends later than its content.
  auto good = valid_binary();
  const std::size_t size_off = 13;  // u64 payload size, little-endian
  ASSERT_LT(static_cast<unsigned char>(good[size_off]), 0xffu);
  ++good[size_off];
  good.push_back('\0');
  expect_binary_rejected(good, "trailing bytes inside record");
}

TEST(IoBinaryMalformed, PostIdOutOfRangeRejected) {
  std::string bytes(kBinaryMagic, sizeof(kBinaryMagic));
  const auto put_u32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  const auto put_u64 = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put_u32(1);          // version
  bytes.push_back(1);  // instance record
  put_u64(9 + 12);     // counts + flags + one applicant, one group, one post
  put_u32(1);          // applicants
  put_u32(3);          // posts
  bytes.push_back(1);  // flags: last resorts
  put_u32(1);          // group count
  put_u32(1);          // group size
  put_u32(7);          // post id 7 >= 3 posts
  expect_binary_rejected(bytes, "post id out of range");
}

/// One instance record payload: applicants, posts, last-resort flag, then
/// per applicant its tie groups. The decoder must refuse it with the
/// format's own "io-binary:" runtime_error.
void expect_payload_rejected(std::uint32_t posts,
                             const std::vector<std::vector<std::vector<std::uint32_t>>>& lists,
                             const char* what) {
  std::string payload;
  const auto put_u32 = [&payload](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put_u32(static_cast<std::uint32_t>(lists.size()));
  put_u32(posts);
  payload.push_back(1);  // flags: last resorts
  for (const auto& groups : lists) {
    put_u32(static_cast<std::uint32_t>(groups.size()));
    for (const auto& group : groups) {
      put_u32(static_cast<std::uint32_t>(group.size()));
      for (const auto p : group) put_u32(p);
    }
  }
  const auto* data = reinterpret_cast<const std::uint8_t*>(payload.data());
  try {
    decode_instance_payload(data, payload.size());
    ADD_FAILURE() << what << ": accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("io-binary: ", 0), 0u) << what << ": " << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": wrong exception type: " << e.what();
  }
  // The stream reader wraps the same decoder.
  std::ostringstream out;
  write_binary_header(out);
  std::string header;
  header.push_back(1);  // instance record
  for (int i = 0; i < 8; ++i) {
    header.push_back(static_cast<char>((std::uint64_t{payload.size()} >> (8 * i)) & 0xff));
  }
  expect_binary_rejected(out.str() + header + payload, what);
}

TEST(IoBinaryMalformed, DuplicatePostRejected) {
  expect_payload_rejected(3, {{{0}, {1}, {0}}}, "duplicate across tie groups");
  expect_payload_rejected(3, {{{2}}, {{0, 1, 0}}}, "duplicate inside one tie");
}

TEST(IoBinaryMalformed, EmptyListRejected) {
  expect_payload_rejected(3, {{{0}}, {}}, "group count 0 with last resorts");
}

TEST(IoBinaryMalformed, DuplicateMatchingEndpointRejectedAsRuntimeError) {
  // Pairs (0,0) and (0,1): the second claims left endpoint 0 again. Must
  // surface as the reader's documented std::runtime_error, not the matching
  // container's std::logic_error.
  std::string bytes(kBinaryMagic, sizeof(kBinaryMagic));
  const auto put_u32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put_u32(1);          // version
  bytes.push_back(2);  // matching record
  for (int i = 0; i < 8; ++i) bytes.push_back(i == 0 ? 28 : 0);  // payload size u64 = 28
  put_u32(2);          // n_left
  put_u32(2);          // n_right
  put_u32(2);          // pair count
  put_u32(0); put_u32(0);
  put_u32(0); put_u32(1);
  std::istringstream in(bytes);
  BinaryReader reader(in);
  EXPECT_THROW(reader.read_matching(), std::runtime_error);
}

TEST(IoBinaryMalformed, UnknownRecordTypeRejected) {
  auto good = valid_binary();
  good[12] = 42;  // record type byte
  expect_binary_rejected(good, "unknown record type");
}

TEST(IoBinaryMalformed, MatchingRecordInInstanceBatchRejected) {
  std::ostringstream out;
  write_binary_header(out);
  write_binary_matching(out, matching::Matching(2, 2));
  std::istringstream in(out.str());
  EXPECT_THROW(read_binary_instances(in), std::runtime_error);
}

}  // namespace
}  // namespace ncpm::io
