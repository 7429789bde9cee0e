#include "support/chaos_proxy.hpp"

#include <algorithm>
#include <utility>

namespace ncpm::net {

namespace {

/// xorshift64*: tiny, seedable, good enough for fault schedules. Never
/// returns the same stream for two different (seed, conn, dir) triples in
/// practice because the splitmix-style preamble decorrelates close seeds.
struct Rng {
  std::uint64_t state;

  explicit Rng(std::uint64_t seed, std::uint64_t conn, bool client_to_server) {
    state = seed * 0x9e3779b97f4a7c15ULL + conn * 0xbf58476d1ce4e5b9ULL +
            (client_to_server ? 0x94d049bb133111ebULL : 0);
    if (state == 0) state = 0x2545f4914f6cdd1dULL;
    next();  // discard the first draw; close seeds start correlated
  }

  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dULL;
  }

  /// Uniform in [1, n].
  std::size_t one_to(std::size_t n) { return static_cast<std::size_t>(next() % n) + 1; }
  /// True with probability ppm / 1e6.
  bool chance_ppm(std::uint32_t ppm) { return ppm > 0 && next() % 1000000 < ppm; }
};

}  // namespace

/// One proxied connection: the client-facing socket, the upstream socket,
/// and the two relay threads shuttling between them. The accept loop keeps
/// a shared_ptr so stop() can reset links mid-relay; each relay thread
/// keeps its own so the sockets outlive whichever side exits last.
struct ChaosProxy::Link {
  Socket client;
  Socket upstream;
  std::thread forward;   ///< client -> upstream
  std::thread backward;  ///< upstream -> client
  std::atomic<bool> dead{false};

  /// RST both ways: linger-0 close semantics on shutdown, so the peers see
  /// a hard reset, not a graceful FIN.
  void kill() noexcept {
    dead.store(true, std::memory_order_release);
    client.set_linger_reset();
    upstream.set_linger_reset();
    client.shutdown_both();
    upstream.shutdown_both();
  }
};

ChaosProxy::ChaosProxy(ChaosConfig config) : config_(std::move(config)) {}

ChaosProxy::~ChaosProxy() { stop(); }

void ChaosProxy::start() {
  listener_ = Socket::listen_on(config_.bind_address, config_.listen_port, 16);
  port_ = listener_.local_port();
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void ChaosProxy::stop() {
  if (stopping_.exchange(true)) return;
  listener_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  std::vector<std::shared_ptr<Link>> links;
  {
    std::lock_guard<std::mutex> lock(links_mu_);
    links.swap(links_);
  }
  for (auto& link : links) link->kill();
  for (auto& link : links) {
    if (link->forward.joinable()) link->forward.join();
    if (link->backward.joinable()) link->backward.join();
  }
}

void ChaosProxy::accept_loop() {
  for (;;) {
    Socket client;
    try {
      client = listener_.accept_connection();
    } catch (const NetError&) {
      return;  // listener shut down
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    auto link = std::make_shared<Link>();
    link->client = std::move(client);
    try {
      link->upstream = Socket::connect_to(config_.upstream_host, config_.upstream_port,
                                          std::chrono::milliseconds(5000));
      if (config_.upstream_rcvbuf > 0) link->upstream.set_recv_buffer(config_.upstream_rcvbuf);
    } catch (const NetError&) {
      continue;  // upstream refused; the client socket closes on scope exit
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t conn = next_conn_.fetch_add(1, std::memory_order_relaxed);
    link->forward = std::thread([this, link, conn] { relay(link, conn, /*client_to_server=*/true); });
    link->backward =
        std::thread([this, link, conn] { relay(link, conn, /*client_to_server=*/false); });
    std::lock_guard<std::mutex> lock(links_mu_);
    // Reap links whose threads already unwound so a long chaos run does not
    // accumulate dead records.
    auto it = links_.begin();
    while (it != links_.end()) {
      if ((*it)->dead.load(std::memory_order_acquire)) {
        if ((*it)->forward.joinable()) (*it)->forward.join();
        if ((*it)->backward.joinable()) (*it)->backward.join();
        it = links_.erase(it);
      } else {
        ++it;
      }
    }
    links_.push_back(std::move(link));
  }
}

void ChaosProxy::relay(std::shared_ptr<Link> link, std::uint64_t conn, bool client_to_server) {
  Rng rng(config_.seed, conn, client_to_server);
  Socket& src = client_to_server ? link->client : link->upstream;
  Socket& dst = client_to_server ? link->upstream : link->client;
  auto& forwarded = client_to_server ? client_bytes_ : server_bytes_;

  std::vector<std::uint8_t> buf(16 * 1024);
  // Bytes left of the currently drawn slice. Carried across reads so the
  // RNG advances per *stream byte*, not per recv() — the fault schedule is
  // then a pure function of (seed, conn, direction, byte stream) and does
  // not wobble with kernel read boundaries. With tearing disabled
  // (max_chunk == 0) a "slice" degenerates to one whole read.
  std::size_t slice_left = 0;
  try {
    for (;;) {
      const std::ptrdiff_t n = src.recv_some(buf.data(), buf.size());
      if (n == 0) {
        // EOF: propagate the half-close so the far side sees it too, then
        // let the opposite relay keep draining until its own EOF.
        dst.shutdown_write();
        break;
      }
      if (n < 0) continue;  // blocking socket: only possible via races; retry

      std::size_t off = 0;
      const auto total = static_cast<std::size_t>(n);
      while (off < total) {
        if (link->dead.load(std::memory_order_acquire)) return;
        if (slice_left == 0) {
          // A new slice begins: draw its length and its per-slice faults.
          slice_left = config_.max_chunk > 0 ? rng.one_to(config_.max_chunk) : total - off;
          if (rng.chance_ppm(config_.delay_ppm)) {
            delays_.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(config_.delay_ms);
          }
          if (rng.chance_ppm(config_.reset_ppm)) {
            resets_.fetch_add(1, std::memory_order_relaxed);
            link->kill();
            return;
          }
        }
        const std::size_t chunk = std::min(total - off, slice_left);

        const std::uint64_t before = forwarded.load(std::memory_order_relaxed);

        // One-shot reset at an exact byte offset: forward up to the
        // boundary, then RST. The boundary byte itself is never delivered.
        if (client_to_server && config_.reset_after_client_bytes > 0 &&
            before + chunk > config_.reset_after_client_bytes &&
            !reset_fired_.exchange(true)) {
          const auto keep = static_cast<std::size_t>(config_.reset_after_client_bytes - before);
          if (keep > 0) dst.send_all(buf.data() + off, keep);
          forwarded.fetch_add(keep, std::memory_order_relaxed);
          resets_.fetch_add(1, std::memory_order_relaxed);
          link->kill();
          return;
        }

        // One-shot byte corruption (1-based offset within this direction).
        if (client_to_server && config_.corrupt_client_byte > 0 &&
            before < config_.corrupt_client_byte && before + chunk >= config_.corrupt_client_byte &&
            !corrupt_fired_.exchange(true)) {
          buf[off + static_cast<std::size_t>(config_.corrupt_client_byte - before) - 1] ^= 0xff;
          corruptions_.fetch_add(1, std::memory_order_relaxed);
        }

        dst.send_all(buf.data() + off, chunk);
        off += chunk;
        slice_left -= chunk;
        const std::uint64_t after = forwarded.fetch_add(chunk, std::memory_order_relaxed) + chunk;

        // One-shot stall: stop draining the server for a while. The server
        // keeps writing into a buffer nobody empties; once it fills, its
        // send_all blocks and, eventually, its send timeout breaks the
        // connection — which is exactly the scenario under test.
        if (!client_to_server && config_.stall_after_server_bytes > 0 &&
            after >= config_.stall_after_server_bytes && !stall_fired_.exchange(true)) {
          stalls_.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(config_.stall_ms);
        }
      }
    }
  } catch (const NetError&) {
    // Either side vanished (reset, proxy teardown): this relay is done.
    // Kill the whole link — a half-relayed connection has no future.
    link->kill();
  }
}

ChaosStats ChaosProxy::stats() const {
  ChaosStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.client_bytes = client_bytes_.load(std::memory_order_relaxed);
  s.server_bytes = server_bytes_.load(std::memory_order_relaxed);
  s.resets = resets_.load(std::memory_order_relaxed);
  s.corruptions = corruptions_.load(std::memory_order_relaxed);
  s.stalls = stalls_.load(std::memory_order_relaxed);
  s.delays = delays_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ncpm::net
