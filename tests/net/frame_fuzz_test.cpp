// Fuzz-lite robustness: random truncations and byte flips of valid
// ncpm-rpc frames and ncpm-binary payloads/streams must produce clean
// typed errors — never crashes, hangs, or out-of-bounds reads. This binary
// runs under ASan/UBSan in CI, which is what turns "no over-read" from a
// hope into an assertion.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "gen/io_binary.hpp"
#include "net/frame.hpp"

namespace ncpm::net {
namespace {

core::Instance sample_instance(std::uint64_t seed) {
  gen::SolvableConfig cfg;
  cfg.num_applicants = 16;
  cfg.num_posts = 40;
  cfg.contention = 2.0;
  cfg.seed = seed;
  return gen::solvable_strict_instance(cfg);
}

/// Decoding mutated bytes may legitimately still succeed (a flip inside a
/// post id, say); the property under test is only "returns or throws".
template <typename Fn>
void expect_clean(Fn&& decode) {
  try {
    decode();
  } catch (const std::exception&) {
    // Typed failure is fine; crashing / over-reading (ASan) is not.
  }
}

std::vector<std::uint8_t> valid_request_body(std::uint64_t seed) {
  RequestHead head;
  head.request_id = seed;
  head.mode_raw = static_cast<std::uint8_t>(seed % engine::kNumModes);
  head.deadline_ns = seed * 17;
  const auto frame = encode_request_frame(head, sample_instance(seed));
  return std::vector<std::uint8_t>(frame.begin() + 4, frame.end());
}

std::vector<std::uint8_t> valid_response_body(std::uint64_t seed) {
  ResponseFrame resp;
  resp.request_id = seed;
  resp.status = RpcStatus::kOk;
  switch (seed % 3) {
    case 0: {
      matching::Matching m(6, 6);
      m.match(static_cast<std::int32_t>(seed % 6), static_cast<std::int32_t>((seed + 1) % 6));
      resp.mode_raw = static_cast<std::uint8_t>(engine::Mode::kSolve);
      resp.applicants = 6;
      resp.matching_size = 1;
      resp.matching = std::move(m);
      break;
    }
    case 1:
      resp.mode_raw = static_cast<std::uint8_t>(engine::Mode::kCount);
      resp.count = seed * 31;
      break;
    default: {
      engine::CheckReport report;
      report.applicants = 10;
      report.posts = 12;
      report.admits_popular = true;
      report.size = 9;
      resp.mode_raw = static_cast<std::uint8_t>(engine::Mode::kCheck);
      resp.check = report;
      break;
    }
  }
  const auto frame = encode_response_frame(resp);
  return std::vector<std::uint8_t>(frame.begin() + 4, frame.end());
}

void fuzz_body(const std::vector<std::uint8_t>& body, std::uint64_t seed, bool request) {
  const auto decode_any = [&](const std::vector<std::uint8_t>& bytes) {
    if (request) {
      expect_clean([&] { decode_request_head(bytes.data(), bytes.size()); });
      expect_clean([&] { decode_request_instance(bytes.data(), bytes.size()); });
    } else {
      expect_clean([&] { decode_response_frame(bytes.data(), bytes.size()); });
    }
  };

  // Every truncation length: the cursor must fail cleanly at each boundary.
  for (std::size_t len = 0; len < body.size(); ++len) {
    decode_any(std::vector<std::uint8_t>(body.begin(),
                                         body.begin() + static_cast<std::ptrdiff_t>(len)));
  }

  // Random byte flips, single and multi.
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pos(0, body.size() - 1);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int round = 0; round < 400; ++round) {
    auto mutated = body;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[pos(rng)] = static_cast<std::uint8_t>(byte(rng));
    }
    decode_any(mutated);
  }

  // Flips in the first bytes (type / id / mode / status), where every value
  // is load-bearing for the decode dispatch.
  for (std::size_t i = 0; i < std::min<std::size_t>(body.size(), 24); ++i) {
    for (const std::uint8_t v : {0x00, 0x01, 0x7f, 0xff}) {
      auto mutated = body;
      mutated[i] = v;
      decode_any(mutated);
    }
  }
}

class FrameFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameFuzz, MutatedRequestFramesFailCleanly) {
  fuzz_body(valid_request_body(GetParam() + 1), GetParam() * 7919, /*request=*/true);
}

TEST_P(FrameFuzz, MutatedResponseFramesFailCleanly) {
  fuzz_body(valid_response_body(GetParam() + 1), GetParam() * 104729, /*request=*/false);
}

TEST_P(FrameFuzz, MutatedInstancePayloadsFailCleanly) {
  const auto payload = io::encode_instance_payload(sample_instance(GetParam() + 1));
  const std::vector<std::uint8_t> body(payload.begin(), payload.end());
  // Stricter than expect_clean: the payload decoder documents
  // std::runtime_error ("io-binary: ...") for every malformed input, so any
  // other exception type escaping it is a contract break.
  const auto decode = [&](const std::vector<std::uint8_t>& bytes) {
    try {
      io::decode_instance_payload(bytes.data(), bytes.size());
    } catch (const std::runtime_error&) {
    }
  };
  for (std::size_t len = 0; len < body.size(); ++len) {
    decode(std::vector<std::uint8_t>(body.begin(),
                                     body.begin() + static_cast<std::ptrdiff_t>(len)));
  }
  std::mt19937_64 rng(GetParam() * 31337 + 1);
  std::uniform_int_distribution<std::size_t> pos(0, body.size() - 1);
  for (int round = 0; round < 400; ++round) {
    auto mutated = body;
    mutated[pos(rng)] = static_cast<std::uint8_t>(rng() % 256);
    decode(mutated);
  }
}

/// Whole-stream fuzz: a valid ncpm-binary batch file, truncated at random
/// offsets and byte-flipped, pushed through BinaryReader until it throws or
/// the stream ends. Covers the header check, record headers, and payloads.
TEST_P(FrameFuzz, MutatedBinaryStreamsFailCleanly) {
  std::ostringstream out;
  io::write_binary_header(out);
  for (std::uint64_t i = 0; i < 3; ++i) {
    io::write_binary_instance(out, sample_instance(GetParam() * 10 + i));
  }
  const auto valid = out.str();

  const auto drain = [](const std::string& bytes) {
    try {
      std::istringstream in(bytes);
      io::BinaryReader reader(in);
      while (reader.peek().has_value()) reader.read_instance();
    } catch (const std::exception&) {
    }
  };

  std::mt19937_64 rng(GetParam() * 65537 + 3);
  for (int round = 0; round < 200; ++round) {
    drain(valid.substr(0, rng() % (valid.size() + 1)));
  }
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  for (int round = 0; round < 200; ++round) {
    auto mutated = valid;
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      mutated[pos(rng)] = static_cast<char>(rng() % 256);
    }
    drain(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace ncpm::net
