// ncpm_cli — command-line front end over the engine and net subsystems and
// the text/binary formats of gen/io.hpp and gen/io_binary.hpp.
//
//   ncpm_cli solve [file] [--threads N]       popular matching (Algorithm 1)
//   ncpm_cli max-card [file]                  largest popular matching (Alg. 3)
//   ncpm_cli fair | rank-maximal [file]       Section IV-E variants
//   ncpm_cli count [file]                     number of popular matchings
//   ncpm_cli check [file]                     existence + statistics only
//   ncpm_cli next-stable [file]               rotations exposed in M0 (Alg. 4)
//   ncpm_cli rotations [file]                 the instance's full rotation set
//   ncpm_cli batch FILE [--threads N] [--mode M]
//                                             solve an ncpm-binary batch file
//   ncpm_cli pack OUT.bin IN.txt [IN2.txt..]  text instances -> binary batch
//   ncpm_cli gen-popular N P SEED             emit a random strict instance
//   ncpm_cli gen-stable N SEED                emit a random stable instance
//   ncpm_cli gen-batch COUNT N P SEED OUT.bin random solvable binary batch
//   ncpm_cli serve [--port P] [--bind A] [--workers W] [--threads L]
//                                             ncpm-rpc v1 server until SIGINT
//   ncpm_cli rpc HOST:PORT MODE [file] [--deadline-ms N]
//                                             one request over the wire
//   ncpm_cli stats HOST:PORT [--watch SECS] [--format prom|json] [--traces]
//                                             scrape a server's metrics snapshot
//   ncpm_cli top HOST:PORT [--interval SECS] [--count N]
//                                             live req/s, latency and phase view
//
// Instances are read from the optional input file (stdin when omitted);
// matchings / instances are written to stdout in the formats documented in
// gen/io.hpp. Every solving mode dispatches one engine::Request through an
// engine::Engine — the same per-mode code path the batch subcommand fans
// out across worker threads and `serve` exposes over TCP.
//
// Exit codes: 0 success, 1 "no popular matching", 2 usage or runtime
// error. Every subcommand prints a one-line `usage: ...` message to stderr
// and exits 2 on bad arguments (covered by tests/cli/usage_test.sh).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "gen/generators.hpp"
#include "gen/io.hpp"
#include "gen/io_binary.hpp"
#include "gen/stable_generators.hpp"
#include "net/client.hpp"
#include "net/resilient_client.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pram/executor.hpp"
#include "stable/rotations.hpp"

namespace {

constexpr const char* kTopUsage =
    "<solve|max-card|fair|rank-maximal|count|check|next-stable|rotations|batch|pack|"
    "gen-popular|gen-stable|gen-batch|serve|rpc|stats|top|help> ...";

/// One-line usage for the (sub)command at hand; always exits 2.
int usage(const char* line = kTopUsage) {
  std::fprintf(stderr, "usage: ncpm_cli %s\n", line);
  return 2;
}

constexpr const char* kSolveUsage =
    "solve|max-card|fair|rank-maximal|count|check|next-stable [file] [--threads N]";
constexpr const char* kRotationsUsage = "rotations [file]";
constexpr const char* kBatchUsage = "batch FILE [--threads N] [--mode M]";
constexpr const char* kPackUsage = "pack OUT.bin IN.txt [IN2.txt ...]";
constexpr const char* kGenPopularUsage = "gen-popular N_APPLICANTS N_POSTS SEED";
constexpr const char* kGenStableUsage = "gen-stable N SEED";
constexpr const char* kGenBatchUsage = "gen-batch COUNT N_APPLICANTS N_POSTS SEED OUT.bin";
constexpr const char* kServeUsage =
    "serve [--port P] [--bind ADDR] [--workers W] [--threads LANES] "
    "[--max-in-flight K] [--max-in-flight-global G] "
    "[--idle-timeout-ms T] [--hello-timeout-ms T] [--metrics-port P] [--trace-sample-n N] "
    "[--slow-request-ms N] [--log-json]";
constexpr const char* kRpcUsage =
    "rpc HOST:PORT MODE [file] [--deadline-ms N] [--retries R] [--backoff-ms B] "
    "[--hedge-ms H]";
constexpr const char* kStatsUsage =
    "stats HOST:PORT [--watch SECS] [--format prom|json] [--traces]";
constexpr const char* kTopCmdUsage = "top HOST:PORT [--interval SECS] [--count N]";

int help() {
  std::printf(
      "ncpm_cli — NC popular matching toolkit\n"
      "  ncpm_cli %s\n  ncpm_cli %s\n  ncpm_cli %s\n  ncpm_cli %s\n  ncpm_cli %s\n"
      "  ncpm_cli %s\n  ncpm_cli %s\n  ncpm_cli %s\n  ncpm_cli %s\n  ncpm_cli %s\n"
      "  ncpm_cli %s\n"
      "Instances are read from [file] or stdin; formats are documented in\n"
      "src/gen/io.hpp (text), src/gen/io_binary.hpp (ncpm-binary v1) and\n"
      "docs/ncpm-rpc-v1.md (the serve/rpc wire protocol; docs/observability.md\n"
      "covers the stats/top subcommands and the serve metrics/tracing flags).\n",
      kSolveUsage, kRotationsUsage, kBatchUsage, kPackUsage, kGenPopularUsage,
      kGenStableUsage, kGenBatchUsage, kServeUsage, kRpcUsage, kStatsUsage, kTopCmdUsage);
  return 0;
}

struct Options {
  std::vector<std::string> positional;
  int threads = 0;             // 0 = unset (mode-dependent default)
  std::string mode = "solve";  // batch submode
  int port = 0;                // serve: 0 = ephemeral
  std::string bind = "127.0.0.1";
  int workers = 0;             // serve: 0 = hardware default
  int max_in_flight = 64;
  int max_in_flight_global = 0;  // serve: 0 = no global admission cap
  int idle_timeout_ms = 0;       // serve: 0 = never reap idle connections
  int hello_timeout_ms = 10000;  // serve: 0 = wait for the hello forever
  int deadline_ms = 0;           // rpc: 0 = none
  int retries = 0;               // rpc: attempts beyond the first
  int backoff_ms = 50;           // rpc: initial retry backoff
  int hedge_ms = 0;              // rpc: 0 = no hedged second attempt
  int metrics_port = -1;         // serve: -1 = no /metrics endpoint, 0 = ephemeral
  int trace_sample_n = 0;        // serve: 0 = tracing off, N = every Nth request
  int slow_request_ms = 0;       // serve: 0 = slow-request capture off
  bool log_json = false;         // serve: JSON-lines lifecycle logging to stderr
  int watch = 0;                 // stats: 0 = one-shot, N = rescrape every N s
  std::string format = "prom";   // stats: prom|json
  bool traces = false;           // stats: include sampled trace spans (json only)
  int interval = 2;              // top: seconds between frames
  int count = 0;                 // top: 0 = until SIGINT, N = stop after N frames
};

/// Parse one nonnegative integer flag value; returns false on junk.
bool parse_int(const char* text, int min_value, int& out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < min_value || v > 1'000'000'000L) return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_flags(int argc, char** argv, Options& opts) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.threads)) return false;
    } else if (arg == "--mode") {
      if (++i >= argc) return false;
      opts.mode = argv[i];
    } else if (arg == "--port") {
      if (++i >= argc || !parse_int(argv[i], 0, opts.port) || opts.port > 65535) return false;
    } else if (arg == "--bind") {
      if (++i >= argc) return false;
      opts.bind = argv[i];
    } else if (arg == "--workers") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.workers)) return false;
    } else if (arg == "--max-in-flight") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.max_in_flight)) return false;
    } else if (arg == "--max-in-flight-global") {
      if (++i >= argc || !parse_int(argv[i], 0, opts.max_in_flight_global)) return false;
    } else if (arg == "--idle-timeout-ms") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.idle_timeout_ms)) return false;
    } else if (arg == "--hello-timeout-ms") {
      if (++i >= argc || !parse_int(argv[i], 0, opts.hello_timeout_ms)) return false;
    } else if (arg == "--deadline-ms") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.deadline_ms)) return false;
    } else if (arg == "--retries") {
      if (++i >= argc || !parse_int(argv[i], 0, opts.retries)) return false;
    } else if (arg == "--backoff-ms") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.backoff_ms)) return false;
    } else if (arg == "--hedge-ms") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.hedge_ms)) return false;
    } else if (arg == "--metrics-port") {
      if (++i >= argc || !parse_int(argv[i], 0, opts.metrics_port) || opts.metrics_port > 65535) {
        return false;
      }
    } else if (arg == "--trace-sample-n") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.trace_sample_n)) return false;
    } else if (arg == "--slow-request-ms") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.slow_request_ms)) return false;
    } else if (arg == "--log-json") {
      opts.log_json = true;
    } else if (arg == "--watch") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.watch)) return false;
    } else if (arg == "--interval") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.interval)) return false;
    } else if (arg == "--count") {
      if (++i >= argc || !parse_int(argv[i], 1, opts.count)) return false;
    } else if (arg == "--format") {
      if (++i >= argc) return false;
      opts.format = argv[i];
      if (opts.format != "prom" && opts.format != "json") return false;
    } else if (arg == "--traces") {
      opts.traces = true;
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else {
      opts.positional.push_back(arg);
    }
  }
  return true;
}

/// Read the whole instance document from the given file (or stdin).
std::string slurp_input(const Options& opts) {
  if (opts.positional.empty()) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    return buf.str();
  }
  std::ifstream file(opts.positional.front(), std::ios::binary);
  if (!file) {
    throw std::runtime_error("cannot open input file '" + opts.positional.front() + "'");
  }
  std::ostringstream buf;
  buf << file.rdbuf();
  return buf.str();
}

/// A popular-matching count as printed: count_popular_matchings saturates
/// at UINT64_MAX, so that value is a lower bound, not an exact count.
std::string format_count(std::uint64_t count) {
  std::string text = std::to_string(count);
  if (count == std::numeric_limits<std::uint64_t>::max()) text = ">= " + text + " (saturated)";
  return text;
}

void print_rotation(const ncpm::stable::Rotation& rho) {
  for (const auto& [man, woman] : rho.pairs) std::printf("(%d,%d) ", man, woman);
  std::printf("\n");
}

/// Render one engine Result the way the pre-engine CLI printed each mode.
int print_result(const ncpm::engine::Result& res) {
  using ncpm::engine::Mode;
  using ncpm::engine::Status;
  switch (res.status) {
    case Status::kNoSolution:
      if (res.mode == Mode::kCheck && res.check.has_value()) break;  // printed below
      std::printf("no popular matching exists\n");
      return 1;
    case Status::kInvalid:
    case Status::kError:
      std::fprintf(stderr, "error: %s\n", res.error.c_str());
      return 2;
    case Status::kDeadlineExpired:
      std::fprintf(stderr, "error: request %s\n",
                   std::string(ncpm::engine::status_name(res.status)).c_str());
      return 2;
    case Status::kOk:
      break;
  }

  switch (res.mode) {
    case Mode::kSolve:
    case Mode::kMaxCard:
    case Mode::kFair:
    case Mode::kRankMaximal:
      std::fprintf(stderr, "size %zu of %d applicants\n", res.matching_size, res.applicants);
      std::fputs(ncpm::io::write_matching(*res.matching).c_str(), stdout);
      return 0;
    case Mode::kCount:
      std::printf("%s\n", format_count(*res.count).c_str());
      return 0;
    case Mode::kCheck: {
      const auto& report = *res.check;
      std::printf("applicants %d posts %d %s\n", report.applicants, report.posts,
                  report.strict ? "strict" : "ties");
      if (!report.admits_popular) {
        std::printf("admits_popular no\n");
      } else {
        std::printf("admits_popular yes\nsize %zu\n", report.size);
        if (report.count.has_value()) {
          std::printf("popular_matchings %s\n", format_count(*report.count).c_str());
        }
      }
      return 0;
    }
    case Mode::kNextStable: {
      const auto& result = *res.next_stable;
      if (result.is_woman_optimal) {
        std::printf("man-optimal == woman-optimal: unique stable matching\n");
        return 0;
      }
      std::printf("%zu rotation(s) exposed in the man-optimal matching:\n",
                  result.rotations.size());
      for (const auto& rho : result.rotations) print_rotation(rho);
      return 0;
    }
  }
  return 2;
}

/// Single-request path: every mode is one Request through a small engine.
int run_engine_mode(ncpm::engine::Mode mode, const Options& opts) {
  ncpm::engine::Request request;
  if (mode == ncpm::engine::Mode::kNextStable) {
    request = ncpm::engine::Request::next_stable(
        ncpm::io::read_stable_instance(slurp_input(opts)));
  } else {
    request = ncpm::engine::Request::popular(mode, ncpm::io::read_instance(slurp_input(opts)));
  }
  // One request: the whole --threads budget goes to intra-solve lanes
  // (ThreadBudget::single), defaulting to every hardware thread.
  const int total = opts.threads > 0 ? opts.threads : ncpm::pram::default_lanes();
  ncpm::engine::Engine engine(ncpm::engine::ThreadBudget::single(total));
  return print_result(engine.submit(std::move(request)).get());
}

int run_rotations(const Options& opts) {
  const auto inst = ncpm::io::read_stable_instance(slurp_input(opts));
  const auto rotations = ncpm::stable::all_rotations(inst);
  std::printf("%zu rotation(s) in the instance:\n", rotations.size());
  for (const auto& rho : rotations) print_rotation(rho);
  return 0;
}

int run_batch(const Options& opts) {
  if (opts.positional.size() != 1) return usage(kBatchUsage);
  const auto mode = ncpm::engine::parse_mode(opts.mode);
  if (!mode.has_value() || *mode == ncpm::engine::Mode::kNextStable) {
    std::fprintf(stderr, "error: batch mode '%s' is not a popular-matching mode\n",
                 opts.mode.c_str());
    return 2;
  }
  std::ifstream file(opts.positional.front(), std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "error: cannot open batch file '%s'\n",
                 opts.positional.front().c_str());
    return 2;
  }
  auto instances = ncpm::io::read_binary_instances(file);
  if (instances.empty()) {
    std::fprintf(stderr, "error: batch file holds no instances\n");
    return 2;
  }

  // Batch: split the --threads budget between worker concurrency and lanes
  // per worker — a queue at least as deep as the budget favours workers
  // (N x 1), a shallow one gives the spare threads to each solve.
  const auto budget = ncpm::engine::ThreadBudget::split(opts.threads > 0 ? opts.threads : 1,
                                                        instances.size());
  ncpm::engine::Engine engine(budget);
  std::vector<ncpm::engine::Request> requests;
  requests.reserve(instances.size());
  for (auto& inst : instances) {
    requests.push_back(ncpm::engine::Request::popular(*mode, std::move(inst)));
  }
  const auto started = std::chrono::steady_clock::now();
  auto futures = engine.submit_batch(std::move(requests));

  std::size_t solved = 0;
  std::size_t no_solution = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto res = futures[i].get();
    switch (res.status) {
      case ncpm::engine::Status::kOk:
        ++solved;
        if (res.matching.has_value()) {
          std::printf("[%zu] ok size %zu\n", i, res.matching_size);
        } else if (res.count.has_value()) {
          std::printf("[%zu] ok count %s\n", i, format_count(*res.count).c_str());
        } else {
          std::printf("[%zu] ok\n", i);
        }
        break;
      case ncpm::engine::Status::kNoSolution:
        ++no_solution;
        std::printf("[%zu] no-popular\n", i);
        break;
      default:
        ++failed;
        std::printf("[%zu] %s %s\n", i,
                    std::string(ncpm::engine::status_name(res.status)).c_str(),
                    res.error.c_str());
        break;
    }
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::duration<double>>(
      std::chrono::steady_clock::now() - started);

  const auto stats = engine.stats();
  std::fprintf(stderr,
               "batch: %zu instances, %zu solved, %zu without popular matching, %zu failed\n",
               futures.size(), solved, no_solution, failed);
  std::fprintf(stderr,
               "engine: %d worker(s) x %d lane(s), %.0f instances/sec, "
               "mean queue latency %.1f us\n",
               engine.num_workers(), stats.lanes_per_worker,
               static_cast<double>(futures.size()) / (elapsed.count() > 0 ? elapsed.count() : 1),
               stats.completed == 0 ? 0.0
                                    : static_cast<double>(stats.queue_ns_total) / 1e3 /
                                          static_cast<double>(stats.completed));
  std::fprintf(stderr, "engine: workspace allocations per worker:");
  for (const auto allocs : stats.workspace_allocs_per_worker) {
    std::fprintf(stderr, " %llu", static_cast<unsigned long long>(allocs));
  }
  std::fprintf(stderr, "\n");
  return failed == 0 ? 0 : 2;
}

int run_pack(const Options& opts) {
  if (opts.positional.size() < 2) return usage(kPackUsage);
  // Read and parse every input before opening (and truncating) the output,
  // so a mistyped input file cannot destroy an existing batch file.
  std::vector<ncpm::core::Instance> instances;
  instances.reserve(opts.positional.size() - 1);
  for (std::size_t i = 1; i < opts.positional.size(); ++i) {
    std::ifstream in(opts.positional[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "error: cannot open input file '%s'\n", opts.positional[i].c_str());
      return 2;
    }
    instances.push_back(ncpm::io::read_instance(in));
  }
  std::ofstream out(opts.positional.front(), std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot open output file '%s'\n",
                 opts.positional.front().c_str());
    return 2;
  }
  ncpm::io::write_binary_header(out);
  for (const auto& inst : instances) ncpm::io::write_binary_instance(out, inst);
  return 0;
}

int run_gen_batch(int argc, char** argv) {
  if (argc != 7) return usage(kGenBatchUsage);
  int count = 0;
  int applicants = 0;
  int posts = 0;
  // Validate the arguments before opening (and truncating) the output file.
  if (!parse_int(argv[2], 1, count) || !parse_int(argv[3], 1, applicants) ||
      !parse_int(argv[4], 1, posts)) {
    return usage(kGenBatchUsage);
  }
  ncpm::gen::SolvableConfig cfg;
  cfg.num_applicants = applicants;
  cfg.num_posts = posts;
  const auto seed = static_cast<std::uint64_t>(std::atoll(argv[5]));
  std::ofstream out(argv[6], std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot open output file '%s'\n", argv[6]);
    return 2;
  }
  ncpm::io::write_binary_header(out);
  for (int i = 0; i < count; ++i) {
    cfg.seed = seed + static_cast<std::uint64_t>(i);
    ncpm::io::write_binary_instance(out, ncpm::gen::solvable_strict_instance(cfg));
  }
  return 0;
}

/// Render one rpc ResponseFrame the way the local modes print, so `rpc`
/// output is byte-identical to running the same mode against a local file.
int print_response(const ncpm::net::ResponseFrame& resp) {
  using ncpm::engine::Mode;
  using ncpm::net::RpcStatus;
  switch (resp.status) {
    case RpcStatus::kNoSolution:
      if (resp.mode() == Mode::kCheck && resp.check.has_value()) break;  // printed below
      std::printf("no popular matching exists\n");
      return 1;
    case RpcStatus::kOk:
      break;
    default:
      std::fprintf(stderr, "error: %s%s%s\n",
                   std::string(ncpm::net::rpc_status_name(resp.status)).c_str(),
                   resp.error.empty() ? "" : ": ", resp.error.c_str());
      return 2;
  }
  std::fprintf(stderr, "rpc: queue %.1f us solve %.3f ms\n",
               static_cast<double>(resp.queue_ns) / 1e3,
               static_cast<double>(resp.solve_ns) / 1e6);
  if (resp.matching.has_value()) {
    std::fprintf(stderr, "size %llu of %u applicants\n",
                 static_cast<unsigned long long>(resp.matching_size), resp.applicants);
    std::fputs(ncpm::io::write_matching(*resp.matching).c_str(), stdout);
    return 0;
  }
  if (resp.count.has_value()) {
    std::printf("%s\n", format_count(*resp.count).c_str());
    return 0;
  }
  if (resp.check.has_value()) {
    const auto& report = *resp.check;
    std::printf("applicants %d posts %d %s\n", report.applicants, report.posts,
                report.strict ? "strict" : "ties");
    if (!report.admits_popular) {
      std::printf("admits_popular no\n");
    } else {
      std::printf("admits_popular yes\nsize %zu\n", report.size);
      if (report.count.has_value()) {
        std::printf("popular_matchings %s\n", format_count(*report.count).c_str());
      }
    }
    // Like the local path, check reports statistics and exits 0 either way.
    return 0;
  }
  return 0;
}

int run_rpc(const Options& opts) {
  if (opts.positional.size() < 2 || opts.positional.size() > 3) return usage(kRpcUsage);
  const auto& hostport = opts.positional[0];
  const auto colon = hostport.rfind(':');
  int port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !parse_int(hostport.c_str() + colon + 1, 1, port) || port > 65535) {
    return usage(kRpcUsage);
  }
  const auto mode = ncpm::engine::parse_mode(opts.positional[1]);
  if (!mode.has_value() || *mode == ncpm::engine::Mode::kNextStable) return usage(kRpcUsage);

  Options input;  // slurp_input reads positional.front() (or stdin when empty)
  if (opts.positional.size() == 3) input.positional.push_back(opts.positional[2]);
  const auto inst = ncpm::io::read_instance(slurp_input(input));

  // Always go through the resilient wrapper: with the defaults (0 retries,
  // no hedge) it behaves exactly like a plain Client, and the flags buy
  // reconnect + backoff + hedging without a separate code path.
  ncpm::net::ResilientClientConfig rcfg;
  rcfg.max_attempts = opts.retries + 1;
  rcfg.backoff.initial = std::chrono::milliseconds(opts.backoff_ms);
  rcfg.hedge_delay = std::chrono::milliseconds(opts.hedge_ms);
  ncpm::net::ResilientClient client(hostport.substr(0, colon), static_cast<std::uint16_t>(port),
                                    rcfg);
  return print_response(client.call(*mode, inst, std::chrono::milliseconds(opts.deadline_ms)));
}

std::atomic<int> g_signal{0};
void on_signal(int sig) { g_signal.store(sig); }

/// Split "HOST:PORT"; false on a missing host, missing colon or junk port.
bool parse_hostport(const std::string& hostport, std::string& host, int& port) {
  const auto colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      !parse_int(hostport.c_str() + colon + 1, 1, port) || port > 65535) {
    return false;
  }
  host = hostport.substr(0, colon);
  return true;
}

int run_stats(const Options& opts) {
  if (opts.positional.size() != 1) return usage(kStatsUsage);
  // Trace spans only exist in the JSON rendering; Prometheus text has no
  // place for them, so reject the combination instead of dropping data.
  if (opts.traces && opts.format != "json") return usage(kStatsUsage);
  std::string host;
  int port = 0;
  if (!parse_hostport(opts.positional[0], host, port)) return usage(kStatsUsage);
  // Scrapes ride the resilient wrapper so --watch survives a server
  // restart: a broken connection redials on the next scrape instead of
  // killing the watch loop (a one-shot scrape still fails hard).
  ncpm::net::ResilientClient client(host, static_cast<std::uint16_t>(port), {});
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (true) {
    try {
      const auto reply = client.scrape_stats(opts.traces);
      if (opts.format == "prom") {
        std::fputs(ncpm::obs::render_prometheus(reply.snapshot).c_str(), stdout);
      } else {
        auto line = ncpm::obs::render_json(reply.snapshot);
        if (opts.traces) {
          // Splice the spans into the snapshot object: {...} -> {...,"spans":[...]}
          line.pop_back();
          line += ",\"spans\":";
          line += ncpm::obs::render_spans_json(reply.spans);
          line += "}";
        }
        line += "\n";
        std::fputs(line.c_str(), stdout);
      }
      std::fflush(stdout);
    } catch (const ncpm::net::NetError& e) {
      if (opts.watch == 0) throw;  // one-shot: surface the error (exit 2)
      std::fprintf(stderr, "stats: scrape failed (%s); retrying in %ds\n", e.what(),
                   opts.watch);
    }
    if (opts.watch == 0) return 0;
    for (int waited = 0; waited < opts.watch * 10; ++waited) {
      if (g_signal.load() != 0) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_signal.load() != 0) return 0;
  }
}

/// Formats nanoseconds adaptively (ns / us / ms / s) into `buf`.
const char* format_ns(double ns, char* buf, std::size_t size) {
  if (ns < 1e3) {
    std::snprintf(buf, size, "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, size, "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, size, "%.2fms", ns / 1e6);
  } else {
    std::snprintf(buf, size, "%.2fs", ns / 1e9);
  }
  return buf;
}

/// Sum of every counter sample named `name` (across label sets).
std::uint64_t counter_sum(const ncpm::obs::Snapshot& snap, const char* name) {
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

std::int64_t gauge_value(const ncpm::obs::Snapshot& snap, const char* name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

/// All histogram samples named `name` folded into one (labels dropped).
ncpm::obs::HistogramSample histogram_sum(const ncpm::obs::Snapshot& snap, const char* name) {
  ncpm::obs::HistogramSample total;
  total.name = name;
  for (const auto& h : snap.histograms) {
    if (h.name != name) continue;
    total.count += h.count;
    total.sum += h.sum;
    for (std::size_t i = 0; i < ncpm::obs::kHistogramBuckets; ++i) {
      total.buckets[i] += h.buckets[i];
    }
  }
  return total;
}

/// a - b, element-wise — the distribution of observations between two
/// scrapes (counters and histograms are monotone, so this never wraps).
ncpm::obs::HistogramSample histogram_delta(const ncpm::obs::HistogramSample& a,
                                           const ncpm::obs::HistogramSample& b) {
  ncpm::obs::HistogramSample d = a;
  d.count -= b.count;
  d.sum -= b.sum;
  for (std::size_t i = 0; i < ncpm::obs::kHistogramBuckets; ++i) d.buckets[i] -= b.buckets[i];
  return d;
}

/// One `top` frame from two consecutive snapshots (prev empty on the first
/// frame, so frame 1 shows since-server-start rates).
void print_top_frame(const ncpm::obs::Snapshot& snap, const ncpm::obs::Snapshot& prev,
                     const std::string& endpoint) {
  const double window_s =
      static_cast<double>(snap.uptime_ns - prev.uptime_ns) / 1e9;
  const double safe_window = window_s > 0 ? window_s : 1.0;

  const auto rate = [&](const char* name) {
    return static_cast<double>(counter_sum(snap, name) - counter_sum(prev, name)) / safe_window;
  };
  const double req_s = rate("ncpm_engine_completed_total");
  const double shed_s =
      rate("ncpm_server_overloaded_shed_total") + rate("ncpm_server_deadline_shed_total");

  const auto solve =
      histogram_delta(histogram_sum(snap, "ncpm_engine_solve_ns"),
                      histogram_sum(prev, "ncpm_engine_solve_ns"));
  const auto queue =
      histogram_delta(histogram_sum(snap, "ncpm_engine_queue_ns"),
                      histogram_sum(prev, "ncpm_engine_queue_ns"));

  char b1[32], b2[32], b3[32], b4[32];
  std::printf("ncpm top — %s  uptime %.1fs  window %.1fs\n", endpoint.c_str(),
              static_cast<double>(snap.uptime_ns) / 1e9, window_s);
  std::printf("  req/s %.1f  shed/s %.1f  slow %llu  in-flight %lld  queue-depth %lld  "
              "conns %lld\n",
              req_s, shed_s,
              static_cast<unsigned long long>(counter_sum(snap, "ncpm_server_slow_requests_total")),
              static_cast<long long>(gauge_value(snap, "ncpm_engine_outstanding")),
              static_cast<long long>(gauge_value(snap, "ncpm_engine_queue_depth")),
              static_cast<long long>(gauge_value(snap, "ncpm_server_connections_active")));
  std::printf("  solve p50 %s p99 %s   queue p50 %s p99 %s\n",
              format_ns(solve.quantile(0.5), b1, sizeof(b1)),
              format_ns(solve.quantile(0.99), b2, sizeof(b2)),
              format_ns(queue.quantile(0.5), b3, sizeof(b3)),
              format_ns(queue.quantile(0.99), b4, sizeof(b4)));

  // Per-phase share of the window's solver time, biggest consumers first.
  struct PhaseShare {
    std::string name;
    std::uint64_t ns = 0;
  };
  std::vector<PhaseShare> phases;
  std::uint64_t phase_total = 0;
  for (const auto& h : snap.histograms) {
    if (h.name != "ncpm_solve_phase_ns") continue;
    std::uint64_t prev_sum = 0;
    for (const auto& p : prev.histograms) {
      if (p.name == h.name && p.labels == h.labels) {
        prev_sum = p.sum;
        break;
      }
    }
    const std::uint64_t delta = h.sum - prev_sum;
    if (delta == 0) continue;
    std::string label = h.labels.empty() ? std::string("?") : h.labels.front().second;
    phases.push_back({std::move(label), delta});
    phase_total += delta;
  }
  std::sort(phases.begin(), phases.end(),
            [](const PhaseShare& a, const PhaseShare& b) { return a.ns > b.ns; });
  std::printf("  phases:");
  if (phase_total == 0) {
    std::printf(" (no solves in window)");
  } else {
    const std::size_t shown = phases.size() < 5 ? phases.size() : 5;
    for (std::size_t i = 0; i < shown; ++i) {
      std::printf(" %s %.1f%%", phases[i].name.c_str(),
                  100.0 * static_cast<double>(phases[i].ns) /
                      static_cast<double>(phase_total));
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

int run_top(const Options& opts) {
  if (opts.positional.size() != 1) return usage(kTopCmdUsage);
  std::string host;
  int port = 0;
  if (!parse_hostport(opts.positional[0], host, port)) return usage(kTopCmdUsage);
  ncpm::net::ResilientClient client(host, static_cast<std::uint16_t>(port), {});
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  ncpm::obs::Snapshot prev;  // zero counters: frame 1 = rates since server start
  int frames = 0;
  while (true) {
    try {
      auto reply = client.scrape_stats(/*include_traces=*/false);
      print_top_frame(reply.snapshot, prev, opts.positional[0]);
      prev = std::move(reply.snapshot);
    } catch (const ncpm::net::NetError& e) {
      if (frames == 0) throw;  // never reached the server: surface the error
      std::fprintf(stderr, "top: scrape failed (%s); retrying in %ds\n", e.what(),
                   opts.interval);
    }
    ++frames;
    if (opts.count > 0 && frames >= opts.count) return 0;
    for (int waited = 0; waited < opts.interval * 10; ++waited) {
      if (g_signal.load() != 0) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_signal.load() != 0) return 0;
  }
}

int run_serve(const Options& opts) {
  if (!opts.positional.empty()) return usage(kServeUsage);
  ncpm::net::ServerConfig cfg;
  cfg.bind_address = opts.bind;
  cfg.port = static_cast<std::uint16_t>(opts.port);
  cfg.max_in_flight_per_connection = static_cast<std::size_t>(opts.max_in_flight);
  cfg.max_in_flight_global = static_cast<std::size_t>(opts.max_in_flight_global);
  cfg.idle_timeout = std::chrono::milliseconds(opts.idle_timeout_ms);
  cfg.hello_timeout = std::chrono::milliseconds(opts.hello_timeout_ms);
  cfg.engine.num_workers = opts.workers > 0 ? opts.workers : ncpm::pram::default_lanes();
  cfg.engine.lanes_per_worker = opts.threads > 0 ? opts.threads : 1;
  if (opts.metrics_port >= 0) cfg.metrics_port = static_cast<std::uint16_t>(opts.metrics_port);
  cfg.trace_sample_n = static_cast<std::uint64_t>(opts.trace_sample_n);
  cfg.slow_request_ns = static_cast<std::uint64_t>(opts.slow_request_ms) * 1'000'000;
  cfg.log_json = opts.log_json;

  ncpm::net::Server server(cfg);
  server.start();
  // One parseable line on stdout so scripts (and the loopback bench) can
  // pick up an ephemeral port.
  std::printf("ncpm-rpc v1 listening on %s:%u (epoll core, %d worker(s) x %d lane(s))\n",
              cfg.bind_address.c_str(), server.port(), cfg.engine.num_workers,
              cfg.engine.lanes_per_worker);
  std::fflush(stdout);
  // Startup summary: one stderr line with everything an operator needs to
  // know about how this process is configured.
  std::string extras;
  if (server.metrics_port() != 0) {
    extras += " metrics-port=" + std::to_string(server.metrics_port());
  }
  if (cfg.trace_sample_n > 0) {
    extras += " trace-sample-n=" + std::to_string(cfg.trace_sample_n);
  }
  if (cfg.slow_request_ns > 0) {
    extras += " slow-request-ms=" + std::to_string(opts.slow_request_ms);
  }
  if (cfg.log_json) extras += " log-json=on";
  std::fprintf(stderr,
               "ncpm_cli serve: up port=%u core=epoll workers=%d lanes=%d "
               "max-in-flight=%zu max-in-flight-global=%zu%s\n",
               server.port(), cfg.engine.num_workers, cfg.engine.lanes_per_worker,
               cfg.max_in_flight_per_connection, cfg.max_in_flight_global, extras.c_str());

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signal.load() == 0 && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const double uptime_s =
      static_cast<double>(server.registry().uptime_ns()) / 1e9;
  std::fprintf(stderr, "ncpm_cli serve: draining\n");
  server.stop();
  const auto stats = server.stats();
  // Drain summary: mirrors the startup line so the two bracket the run.
  std::fprintf(stderr,
               "ncpm_cli serve: down uptime=%.1fs connections=%llu frames=%llu "
               "responses=%llu shed=%llu malformed=%llu\n",
               uptime_s, static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.frames_received),
               static_cast<unsigned long long>(stats.responses_sent),
               static_cast<unsigned long long>(stats.overloaded_shed + stats.deadline_shed),
               static_cast<unsigned long long>(stats.malformed_frames));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options opts;
  try {
    if (mode == "help" || mode == "--help" || mode == "-h") return help();
    if (mode == "gen-popular") {
      if (argc != 5) return usage(kGenPopularUsage);
      ncpm::gen::StrictConfig cfg;
      int applicants = 0;
      int posts = 0;
      if (!parse_int(argv[2], 1, applicants) || !parse_int(argv[3], 1, posts)) {
        return usage(kGenPopularUsage);
      }
      cfg.num_applicants = applicants;
      cfg.num_posts = posts;
      cfg.seed = static_cast<std::uint64_t>(std::atoll(argv[4]));
      std::fputs(ncpm::io::write_instance(ncpm::gen::random_strict_instance(cfg)).c_str(),
                 stdout);
      return 0;
    }
    if (mode == "gen-stable") {
      if (argc != 4) return usage(kGenStableUsage);
      int n = 0;
      if (!parse_int(argv[2], 1, n)) return usage(kGenStableUsage);
      std::fputs(ncpm::io::write_stable_instance(ncpm::gen::random_stable_instance(
                     n, static_cast<std::uint64_t>(std::atoll(argv[3]))))
                     .c_str(),
                 stdout);
      return 0;
    }
    if (mode == "gen-batch") return run_gen_batch(argc, argv);
    if (!parse_flags(argc, argv, opts)) {
      if (mode == "batch") return usage(kBatchUsage);
      if (mode == "pack") return usage(kPackUsage);
      if (mode == "serve") return usage(kServeUsage);
      if (mode == "rpc") return usage(kRpcUsage);
      if (mode == "stats") return usage(kStatsUsage);
      if (mode == "top") return usage(kTopCmdUsage);
      if (mode == "rotations") return usage(kRotationsUsage);
      return usage(ncpm::engine::parse_mode(mode).has_value() ? kSolveUsage : kTopUsage);
    }
    if (mode == "batch") return run_batch(opts);
    if (mode == "pack") return run_pack(opts);
    if (mode == "serve") return run_serve(opts);
    if (mode == "rpc") return run_rpc(opts);
    if (mode == "stats") return run_stats(opts);
    if (mode == "top") return run_top(opts);
    if (mode == "rotations") {
      if (opts.positional.size() > 1) return usage(kRotationsUsage);
      return run_rotations(opts);
    }
    const auto engine_mode = ncpm::engine::parse_mode(mode);
    if (!engine_mode.has_value()) return usage();
    if (opts.positional.size() > 1) return usage(kSolveUsage);
    return run_engine_mode(*engine_mode, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
