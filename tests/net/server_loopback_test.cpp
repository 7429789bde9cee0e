// Loopback integration: real sockets, real threads, the whole ncpm-rpc v1
// path. The gate (ISSUE 5): N client threads x M pipelined mixed-mode
// requests return byte-identical results to direct Engine::submit,
// out-of-order responses are matched by request id, malformed frames get
// error responses without killing the connection, and shutdown drains
// in-flight requests.
//
// The assertions ARE the server's semantic contract: any change to the
// epoll core must pass every one of them unchanged.

#include "net/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "gen/io_binary.hpp"
#include "net/client.hpp"

namespace ncpm::net {
namespace {

using engine::Mode;

std::vector<core::Instance> mixed_instances(std::uint64_t seed) {
  std::vector<core::Instance> instances;
  for (int i = 0; i < 4; ++i) {
    gen::SolvableConfig cfg;
    // Mixed sizes so solves finish out of submission order under several
    // workers — the out-of-order/request-id matching is actually exercised.
    cfg.num_applicants = 20 + 60 * i;
    cfg.num_posts = cfg.num_applicants * 3;
    cfg.contention = 2.0;
    cfg.seed = seed * 100 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::solvable_strict_instance(cfg));
  }
  for (int i = 0; i < 2; ++i) {
    gen::StrictConfig cfg;
    cfg.num_applicants = 15 + i * 10;
    cfg.num_posts = 12 + i * 10;
    cfg.seed = seed * 100 + 50 + static_cast<std::uint64_t>(i);
    instances.push_back(gen::random_strict_instance(cfg));
  }
  instances.push_back(gen::contention_instance(6));  // admits no popular matching
  return instances;
}

constexpr Mode kModes[] = {Mode::kSolve, Mode::kMaxCard, Mode::kFair, Mode::kRankMaximal,
                           Mode::kCount, Mode::kCheck};

/// Direct-engine reference for the same (mode, instance) pairs, matched
/// against wire responses byte-by-byte where a byte encoding exists.
void expect_matches_direct(const ResponseFrame& resp, const engine::Result& ref) {
  switch (ref.status) {
    case engine::Status::kOk:
      ASSERT_EQ(resp.status, RpcStatus::kOk) << resp.error;
      break;
    case engine::Status::kNoSolution:
      ASSERT_EQ(resp.status, RpcStatus::kNoSolution);
      break;
    default:
      FAIL() << "reference result has unexpected status";
  }
  ASSERT_EQ(resp.matching.has_value(), ref.matching.has_value());
  if (ref.matching.has_value()) {
    // Byte-identical: the payload codec is deterministic, so comparing
    // encodings compares every pair in both directions.
    EXPECT_EQ(io::encode_matching_payload(*resp.matching),
              io::encode_matching_payload(*ref.matching));
    EXPECT_EQ(resp.matching_size, ref.matching_size);
    EXPECT_EQ(resp.applicants, static_cast<std::uint32_t>(ref.applicants));
  }
  EXPECT_EQ(resp.count, ref.count);
  ASSERT_EQ(resp.check.has_value(), ref.check.has_value());
  if (ref.check.has_value()) {
    EXPECT_EQ(resp.check->applicants, ref.check->applicants);
    EXPECT_EQ(resp.check->posts, ref.check->posts);
    EXPECT_EQ(resp.check->strict, ref.check->strict);
    EXPECT_EQ(resp.check->admits_popular, ref.check->admits_popular);
    EXPECT_EQ(resp.check->size, ref.check->size);
    EXPECT_EQ(resp.check->count, ref.check->count);
  }
}

TEST(ServerLoopback, PipelinedMixedModesMatchDirectEngine) {
  constexpr int kClients = 4;
  constexpr std::size_t kRequestsPerClient = 24;

  ServerConfig cfg;
  cfg.engine = engine::EngineConfig{4, 1};
  Server server(cfg);
  server.start();
  ASSERT_GT(server.port(), 0);

  const auto instances = mixed_instances(42);

  // Reference results straight off an identically configured engine.
  std::vector<RpcCall> calls;
  std::vector<engine::Result> reference;
  calls.reserve(kRequestsPerClient);
  reference.reserve(kRequestsPerClient);
  {
    engine::Engine direct(engine::EngineConfig{1, 1});
    for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
      calls.push_back({kModes[i % std::size(kModes)], instances[i % instances.size()], 0});
      reference.push_back(
          direct.submit(engine::Request::popular(calls[i].mode, calls[i].instance)).get());
    }
  }

  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        auto client = Client::connect("127.0.0.1", server.port());
        auto responses = client.call_batch(calls);
        ASSERT_EQ(responses.size(), calls.size());
        for (std::size_t i = 0; i < responses.size(); ++i) {
          SCOPED_TRACE("client " + std::to_string(c) + " request " + std::to_string(i));
          expect_matches_direct(responses[i], reference[i]);
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& f : failures) EXPECT_TRUE(f.empty()) << f;

  // stop() joins every event-loop thread, making the counters final —
  // reading them earlier races the last session's post-send increment.
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.frames_received, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.responses_sent, kClients * kRequestsPerClient);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

TEST(ServerLoopback, MalformedFramesGetErrorsWithoutKillingTheConnection) {
  Server server;
  server.start();

  Socket sock = Socket::connect_to("127.0.0.1", server.port(), std::chrono::seconds(5));
  send_hello(sock);
  ASSERT_TRUE(expect_hello(sock));

  const auto send_frame = [&](const std::string& body) {
    std::string frame;
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((body.size() >> (8 * i)) & 0xff));
    }
    frame += body;
    sock.send_all(frame.data(), frame.size());
  };
  std::vector<std::uint8_t> body;
  const auto next_response = [&] {
    if (!read_frame_body(sock, body)) throw NetError(NetErrc::kClosed, "eof");
    return decode_response_frame(body.data(), body.size());
  };
  const auto put_u64 = [](std::string& out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };

  // 1. Well-framed garbage too short for a request head: id unsalvageable,
  // the server answers id 0 / mode unknown.
  send_frame(std::string("\x01\x02\x03", 3));
  auto resp = next_response();
  EXPECT_EQ(resp.status, RpcStatus::kMalformedFrame);
  EXPECT_EQ(resp.request_id, 0u);
  EXPECT_EQ(resp.mode_raw, kModeUnknown);

  // 2. Valid head, unknown mode tag: id and mode echoed.
  {
    std::string req(1, '\x01');
    put_u64(req, 77);
    req.push_back(static_cast<char>(0x2a));  // mode 42
    put_u64(req, 0);
    send_frame(req);
  }
  resp = next_response();
  EXPECT_EQ(resp.status, RpcStatus::kUnsupportedMode);
  EXPECT_EQ(resp.request_id, 77u);
  EXPECT_EQ(resp.mode_raw, 0x2a);

  // 3. Valid head, garbage instance payload: id salvaged for the error.
  {
    std::string req(1, '\x01');
    put_u64(req, 78);
    req.push_back('\x00');  // kSolve
    put_u64(req, 0);
    req += "this is not an ncpm-binary instance payload";
    send_frame(req);
  }
  resp = next_response();
  EXPECT_EQ(resp.status, RpcStatus::kMalformedFrame);
  EXPECT_EQ(resp.request_id, 78u);
  EXPECT_FALSE(resp.error.empty());

  // 4. The connection survived all three: a real request still solves.
  {
    gen::SolvableConfig cfg;
    cfg.num_applicants = 12;
    cfg.num_posts = 30;
    cfg.seed = 5;
    RequestHead head;
    head.request_id = 79;
    head.mode_raw = static_cast<std::uint8_t>(Mode::kSolve);
    const auto frame = encode_request_frame(head, gen::solvable_strict_instance(cfg));
    sock.send_all(frame.data(), frame.size());
  }
  resp = next_response();
  EXPECT_EQ(resp.status, RpcStatus::kOk);
  EXPECT_EQ(resp.request_id, 79u);
  ASSERT_TRUE(resp.matching.has_value());

  EXPECT_EQ(server.stats().malformed_frames, 3u);
  sock.close();
  server.stop();
}

TEST(ServerLoopback, DeadlineTooTightComesBackExpired) {
  Server server;
  server.start();
  auto client = Client::connect("127.0.0.1", server.port());
  gen::SolvableConfig cfg;
  cfg.num_applicants = 40;
  cfg.num_posts = 120;
  cfg.seed = 9;
  // 1 ns from server receipt: expired by the time a worker dequeues it.
  const auto resp = client.call(Mode::kSolve, gen::solvable_strict_instance(cfg), 1);
  EXPECT_EQ(resp.status, RpcStatus::kDeadlineExpired);
  server.stop();
}

TEST(ServerLoopback, StopDrainsInFlightRequests) {
  ServerConfig cfg;
  cfg.engine = engine::EngineConfig{1, 1};  // one worker => a real queue builds
  Server server(cfg);
  server.start();

  constexpr std::size_t kPipelined = 24;
  Socket sock = Socket::connect_to("127.0.0.1", server.port(), std::chrono::seconds(5));
  send_hello(sock);
  ASSERT_TRUE(expect_hello(sock));

  gen::SolvableConfig icfg;
  icfg.num_applicants = 120;
  icfg.num_posts = 360;
  icfg.contention = 2.0;
  icfg.seed = 21;
  const auto inst = gen::solvable_strict_instance(icfg);
  for (std::size_t i = 0; i < kPipelined; ++i) {
    RequestHead head;
    head.request_id = i + 1;
    head.mode_raw = static_cast<std::uint8_t>(kModes[i % std::size(kModes)]);
    const auto frame = encode_request_frame(head, inst);
    sock.send_all(frame.data(), frame.size());
  }

  // Wait until the server has read (and dispatched) every frame, so stop()
  // genuinely races a deep in-flight queue rather than unread bytes.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().frames_received < kPipelined) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "server never read the frames";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::thread stopper([&] { server.stop(); });

  // Every dispatched request must still produce a response before the
  // server closes the connection.
  std::vector<bool> seen(kPipelined, false);
  std::vector<std::uint8_t> body;
  std::size_t received = 0;
  while (received < kPipelined) {
    ASSERT_TRUE(read_frame_body(sock, body)) << "connection closed before the drain finished";
    const auto resp = decode_response_frame(body.data(), body.size());
    ASSERT_GE(resp.request_id, 1u);
    ASSERT_LE(resp.request_id, kPipelined);
    ASSERT_FALSE(seen[resp.request_id - 1]) << "duplicate response";
    seen[resp.request_id - 1] = true;
    // Drain means solved, not rejected.
    EXPECT_TRUE(resp.status == RpcStatus::kOk || resp.status == RpcStatus::kNoSolution)
        << rpc_status_name(resp.status);
    ++received;
  }
  EXPECT_FALSE(read_frame_body(sock, body));  // then clean EOF
  stopper.join();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().responses_sent, kPipelined);
}

/// A client that pipelines requests and then never reads a byte must not
/// block stop(): once the TCP buffers fill, the session trips the send
/// timeout, drops its backlog, releases every held slot and closes, and the
/// drain completes. (When the responses happen to fit the kernel buffers
/// the session never stalls and this degenerates to a clean drain — either
/// way stop() returns; a hang fails the test via the CTest timeout.)
TEST(ServerLoopback, StalledClientCannotBlockStop) {
  ServerConfig cfg;
  cfg.send_timeout = std::chrono::milliseconds(250);
  cfg.engine = engine::EngineConfig{1, 1};
  Server server{cfg};
  server.start();

  Socket sock = Socket::connect_to("127.0.0.1", server.port(), std::chrono::seconds(5));
  send_hello(sock);
  ASSERT_TRUE(expect_hello(sock));

  // Cheap solve, fat response: ~n matched pairs => ~8n bytes of matching
  // payload per frame, enough in aggregate to overrun loopback buffers.
  gen::SolvableConfig icfg;
  icfg.num_applicants = 40000;
  icfg.num_posts = 80000;
  icfg.seed = 33;
  const auto inst = gen::solvable_strict_instance(icfg);
  constexpr std::size_t kPipelined = 24;
  std::size_t sent = 0;
  try {
    for (; sent < kPipelined; ++sent) {
      RequestHead head;
      head.request_id = sent + 1;
      head.mode_raw = static_cast<std::uint8_t>(Mode::kSolve);
      const auto frame = encode_request_frame(head, inst);
      sock.send_all(frame.data(), frame.size());
    }
  } catch (const NetError&) {
    // On a loaded host the send timeout can fire while the pipeline is
    // still being written: the server closes the stalled connection and
    // this send fails. That is the behaviour under test arriving early.
  }

  // Wait until the server has read every frame that made it out, or has
  // already closed the connection on the send timeout.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stats().frames_received < sent && server.stats().connections_active > 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "server never read the frames";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server.stop();  // must return; the stalled write side cannot pin the drain
  EXPECT_FALSE(server.running());
}

/// Protocol-error responses go through the same slot accounting as engine
/// work: a storm of malformed frames larger than the in-flight bound must
/// cycle through (slots released as error responses are sent), not wedge
/// the reader.
TEST(ServerLoopback, MalformedFrameStormRespectsBackpressure) {
  ServerConfig cfg;
  cfg.max_in_flight_per_connection = 4;
  Server server{cfg};
  server.start();

  Socket sock = Socket::connect_to("127.0.0.1", server.port(), std::chrono::seconds(5));
  send_hello(sock);
  ASSERT_TRUE(expect_hello(sock));

  constexpr std::size_t kFrames = 200;
  const std::string garbage = "\x01\x02";  // well-framed, unparseable head
  for (std::size_t i = 0; i < kFrames; ++i) {
    std::uint8_t prefix[4] = {static_cast<std::uint8_t>(garbage.size()), 0, 0, 0};
    sock.send_all(prefix, sizeof(prefix));
    sock.send_all(garbage.data(), garbage.size());
  }
  std::vector<std::uint8_t> body;
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(read_frame_body(sock, body));
    EXPECT_EQ(decode_response_frame(body.data(), body.size()).status,
              RpcStatus::kMalformedFrame);
  }
  sock.close();
  server.stop();
  EXPECT_EQ(server.stats().malformed_frames, kFrames);
}

TEST(ServerLoopback, ServerIsSingleUse) {
  Server server;
  server.start();
  server.stop();
  EXPECT_THROW(server.start(), NetError);
}

/// Connecting clients that disappear without a clean shutdown must not
/// wedge or leak the server (the reaper path).
TEST(ServerLoopback, AbruptClientDisconnectsAreHarmless) {
  Server server;
  server.start();
  for (int i = 0; i < 8; ++i) {
    Socket sock = Socket::connect_to("127.0.0.1", server.port(), std::chrono::seconds(5));
    if (i % 2 == 0) send_hello(sock);  // half die mid-hello, half before
    sock.close();
  }
  // A real client still works after the carnage.
  auto client = Client::connect("127.0.0.1", server.port());
  gen::SolvableConfig cfg;
  cfg.num_applicants = 10;
  cfg.num_posts = 25;
  cfg.seed = 3;
  const auto resp = client.call(Mode::kCount, gen::solvable_strict_instance(cfg));
  EXPECT_EQ(resp.status, RpcStatus::kOk);
  server.stop();
}

}  // namespace
}  // namespace ncpm::net
