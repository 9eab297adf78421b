// serve-mix: an in-process serve::Server driven by a closed loop of client
// threads (every daemon caller blocks on its reply), each calling
// Server::handle_line with a seeded, Zipf-skewed stream of predict / bounds /
// whatif / lint / ping requests over a key space several times the response
// cache, so hits, misses and evictions all occur and every client reads and
// writes the same LRU. As a companion the clients play a fixed request
// count instead of a time.
//
// The untraced run calls handle_line directly: on the 4-vCPU VM this was
// tuned on, a closed loop over the Unix socket varied by 20-40 % (IQR over
// median) between runs, beyond any bound a later change could be held to.
// The socket is measured in the traced run instead: `net.wire` is the
// daemon's round trip over its real socket minus its handle_line time. That
// run also replays client 0's stream on one thread, on identically warmed
// caches, through the real Server::handle_line, timed whole, and through the
// public functions handle_line is made of, untraced and with a span around
// each. What the real call spends outside those spans is unattributed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "serve/ops.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/concurrent_lru.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mhbench {

namespace {

using mheta::Rng;
namespace serve = mheta::serve;

constexpr int kClients = 3;
// The daemon's default response cache.
constexpr std::size_t kCacheCapacity = 1024;
constexpr std::size_t kCacheShards = 8;
// Per client; a client that gets further wraps around. Longer than the
// traced replay.
constexpr std::size_t kStreamLength = std::size_t{1} << 17;
constexpr std::size_t kWarmLines = 8192;
constexpr std::size_t kCompanionRequests = 360000;  // per client
constexpr std::size_t kReplayLines = 100000;  // traced replay, client 0
static_assert(kReplayLines <= kStreamLength);
constexpr std::size_t kWireLines = 20000;

const char* const kApps[] = {"jacobi", "jacobi-pf", "cg",   "lanczos",
                             "rna",    "multigrid", "isort"};
const char* const kArchs[] = {"DC", "IO", "HY1", "HY2"};
const char* const kDists[] = {"blk", "bal", "ic", "icbal"};
const int kIterations[] = {0, 5, 20};
const char* const kParams[] = {"compute", "disk", "net_latency",
                               "net_bandwidth"};
const char* const kFactors[] = {"0.5", "0.8", "1.25", "2"};

enum Kind { kPredict, kBounds, kWhatif, kLint, kPing, kKinds };
// The kind shares of the repository's load generator, bench/serve_load: its
// 21-request mix holds 12 predict, 3 bounds, 2 whatif, 3 lint and 1 ping.
const double kKindShare[kKinds] = {12.0 / 21, 3.0 / 21, 2.0 / 21, 3.0 / 21,
                                   1.0 / 21};

/// Inverse-CDF sampler of ranks 0..n-1 with P(k) proportional to
/// 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Inputs {
  /// Request members after the id, one per key; keys are grouped by kind.
  std::vector<std::string> bodies;
  std::vector<std::uint32_t> streams[kClients];  ///< key ids per client
  std::vector<std::uint32_t> warm;               ///< cache warm-up stream
  std::string digest;
};

std::string member(const char* name, const std::string& value) {
  return std::string(",\"") + name + "\":\"" + value + "\"";
}

std::vector<std::string> kind_keys(Kind kind) {
  std::vector<std::string> keys;
  if (kind == kPing) {
    keys.push_back("\"kind\":\"ping\",\"echo\":\"mix\"");
    return keys;
  }
  for (const char* app : kApps) {
    for (const char* arch : kArchs) {
      for (const char* dist : kDists) {
        const std::string base =
            member("input", app) + member("arch", arch) + member("dist", dist);
        if (kind == kLint) {
          keys.push_back("\"kind\":\"lint\"" + base);
          continue;
        }
        for (const int iters : kIterations) {
          const std::string it = ",\"iterations\":" + std::to_string(iters);
          if (kind == kPredict)
            keys.push_back("\"kind\":\"predict\"" + base + it);
          if (kind == kBounds)
            keys.push_back("\"kind\":\"bounds\"" + base + it);
          if (kind != kWhatif) continue;
          int rank = 0;
          for (const char* param : kParams) {
            for (const char* factor : kFactors) {
              std::string spec = std::string("{\"param\":\"") + param + "\"";
              if (param == kParams[0] || param == kParams[1])
                spec += ",\"rank\":" + std::to_string(rank++ % 8);
              spec += std::string(",\"factor\":") + factor + "}";
              keys.push_back("\"kind\":\"whatif\"" + base + it +
                             ",\"perturb\":[" + spec + "]");
            }
          }
        }
      }
    }
  }
  return keys;
}

Inputs generate(std::uint64_t seed, double zipf_exponent) {
  Inputs in;
  std::size_t offset[kKinds];
  std::vector<Zipf> zipf;
  for (int k = 0; k < kKinds; ++k) {
    std::vector<std::string> keys = kind_keys(static_cast<Kind>(k));
    // Which keys are hot is drawn from the seed: a Fisher-Yates shuffle
    // puts them in Zipf rank order.
    Rng rng(seed, 1 + static_cast<std::uint64_t>(k));
    shuffle(keys, rng);
    offset[k] = in.bodies.size();
    zipf.emplace_back(keys.size(), zipf_exponent);
    for (auto& key : keys) in.bodies.push_back(std::move(key));
  }
  const auto draw = [&](Rng& rng) {
    double u = rng.uniform01();
    int kind = 0;
    while (kind < kKinds - 1 && u >= kKindShare[kind]) u -= kKindShare[kind++];
    const Zipf& ranks = zipf[static_cast<std::size_t>(kind)];
    return static_cast<std::uint32_t>(offset[kind] + ranks.sample(rng));
  };
  std::uint64_t h = fnv1a("serve-mix zipf " + std::to_string(zipf_exponent));
  for (const auto& body : in.bodies) h = fnv1a(body, h);
  for (int c = 0; c < kClients; ++c) {
    Rng rng(seed, 100 + static_cast<std::uint64_t>(c));
    in.streams[c].resize(kStreamLength);
    for (auto& id : in.streams[c]) id = draw(rng);
  }
  Rng warm(seed, 99);
  in.warm.resize(kWarmLines);
  for (auto& id : in.warm) id = draw(warm);
  for (const auto* s :
       {&in.streams[0], &in.streams[1], &in.streams[2], &in.warm})
    h = fnv1a(std::string_view(reinterpret_cast<const char*>(s->data()),
                               s->size() * sizeof(std::uint32_t)),
              h);
  in.digest = hex64(h);
  return in;
}

std::string make_line(const Inputs& in, std::uint32_t key, std::uint64_t id) {
  return "{\"id\":" + std::to_string(id) + "," + in.bodies[key] + "}";
}

/// Request id of client `c`'s `i`-th request (unique across clients).
std::uint64_t request_id(int c, std::size_t i) {
  return static_cast<std::uint64_t>(c) * 1000000000ULL + i;
}

serve::ServerOptions server_options(const std::string& socket_path,
                                    std::size_t cache_capacity) {
  serve::ServerOptions o;
  o.socket_path = socket_path;
  o.threads = kClients + 1;  // acceptor + one worker per client
  o.cache_capacity = cache_capacity;
  o.cache_shards = kCacheShards;
  return o;
}

/// A running daemon: the Server, the thread inside Server::run, and the
/// shutdown that joins it.
class Daemon {
 public:
  explicit Daemon(const std::string& socket_path)
      : server_(server_options(socket_path, kCacheCapacity)) {
    thread_ = std::thread([this] {
      try {
        server_.run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
    for (int i = 0; i < 5000; ++i) {
      try {
        mheta::util::unix_connect(socket_path);
        return;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    stop();
    throw std::runtime_error("serve-mix: daemon did not accept on " +
                             socket_path + " " + error_);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::Server& server() { return server_; }
  void stop() {
    if (!thread_.joinable()) return;
    server_.shutdown();
    thread_.join();
  }

 private:
  serve::Server server_;
  std::string error_;
  std::thread thread_;
};

constexpr std::size_t kSessions = std::size(kApps) * std::size(kArchs);

/// The set-up lines: one predict per (input, arch) pair, which builds its
/// session, then the cache warm-up stream.
std::vector<std::string> warm_lines(const Inputs& in) {
  std::vector<std::string> lines;
  for (const char* app : kApps) {
    for (const char* arch : kArchs) {
      lines.push_back("{\"id\":" + std::to_string(lines.size()) +
                      ",\"kind\":\"predict\"" + member("input", app) +
                      member("arch", arch) + "}");
    }
  }
  for (const std::uint32_t key : in.warm)
    lines.push_back(make_line(in, key, lines.size()));
  return lines;
}

/// Builds every (input, arch) session and fills the response cache by
/// playing the set-up lines in process.
void warm_up(const Inputs& in, serve::Server& server) {
  const std::vector<std::string> lines = warm_lines(in);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!is_ok_envelope(server.handle_line(lines[i])) && i < kSessions)
      throw std::runtime_error("serve-mix: session build failed: " + lines[i]);
  }
}

/// Set-up: start the daemon, then warm it up.
std::unique_ptr<Daemon> set_up(const Inputs& in,
                               const std::string& socket_path) {
  auto daemon = std::make_unique<Daemon>(socket_path);
  warm_up(in, daemon->server());
  return daemon;
}

/// One closed-loop client: where it is in its stream, and what it saw.
struct Client {
  std::size_t next = 0;  ///< index of the next request in its stream
  std::vector<double> latency_s;
  std::vector<Served> served;
  std::string error;
};

/// Plays client `c`'s stream through server.handle_line until `deadline`
/// or for `count` requests, whichever comes first.
void run_client(const Inputs& in, int c, serve::Server& server,
                Clock::time_point deadline, std::size_t count,
                Client& client) {
  try {
    for (std::size_t done = 0; done < count; ++done) {
      const std::size_t i = client.next;
      const std::string line =
          make_line(in, in.streams[c][i % kStreamLength], request_id(c, i));
      const auto begin = Clock::now();
      if (begin >= deadline) return;
      const std::string response = server.handle_line(line);
      client.latency_s.push_back(seconds_since(begin));
      client.served.push_back(Served::of(response));
      ++client.next;
    }
  } catch (const std::exception& e) {
    client.error = e.what();
  }
}

// --- traced replay -----------------------------------------------------------

using Lru = mheta::util::ConcurrentLru<std::string, std::string>;

/// How Server::handle_line answered a line, as the composition saw it.
enum Outcome { kHit, kMiss, kPong, kError, kOutcomes };
const char* const kComposedSpan[kOutcomes] = {
    "composed.handle_line.hit", "composed.handle_line.miss",
    "composed.handle_line.ping", "composed.handle_line.error"};
const char* const kRealSpan[kOutcomes] = {
    "server.handle_line.hit", "server.handle_line.miss",
    "server.handle_line.ping", "server.handle_line.error"};

/// Server::handle_line for a cacheable or ping request, composed from the
/// public functions it calls, with a span around each call.
std::string composed_handle_line(const std::string& line, std::uint64_t id,
                                 Lru& lru, serve::SessionRegistry& sessions,
                                 Tracer& t, Outcome& outcome) {
  auto top = t.span(kComposedSpan[kMiss], id);
  const auto finish = [&](Outcome o) {
    outcome = o;
    top.rename(kComposedSpan[o]);
  };
  serve::Request req;
  std::string error;
  bool parsed = false;
  {
    auto s = t.span("protocol.parse", id);
    parsed = serve::parse_request(line, req, &error);
  }
  if (!parsed) {
    finish(kError);
    return serve::error_envelope(req, error);
  }
  if (req.kind == serve::RequestKind::kPing) {
    finish(kPong);
    auto s = t.span("protocol.envelope", id);
    return serve::ok_envelope(req, "{\"echo\":" +
                                       mheta::obs::json_escape(req.echo) +
                                       ",\"pong\":true}");
  }
  std::string key;
  {
    auto s = t.span("protocol.key", id);
    key = req.canonical_key();
  }
  std::string payload;
  bool hit = false;
  {
    auto s = t.span("lru.get", id);
    hit = lru.get(key, &payload);
  }
  finish(hit ? kHit : kMiss);
  if (!hit) {
    mheta::obs::JsonValue value;
    try {
      if (req.kind == serve::RequestKind::kLint) {
        auto s = t.span("ops.lint", id);
        value = serve::lint_payload(
            serve::lint_input(req.input, req.arch, req.dist, false, &sessions));
      } else {
        std::shared_ptr<const serve::Session> session;
        {
          auto s = t.span("session.acquire", id);
          session = sessions.acquire(req.input, req.arch);
        }
        if (req.kind == serve::RequestKind::kPredict) {
          auto s = t.span("ops.predict", id);
          value = serve::predict_payload(*session, req.dist, req.iterations);
        } else if (req.kind == serve::RequestKind::kBounds) {
          auto s = t.span("ops.bounds", id);
          value = serve::bounds_payload(*session, req.dist, req.iterations);
        } else {
          auto s = t.span("ops.whatif", id);
          value = serve::whatif_payload(*session, req.dist, req.iterations,
                                        req.perturbs);
        }
      }
    } catch (const std::exception& e) {
      finish(kError);
      return serve::error_envelope(req, e.what());
    }
    {
      auto s = t.span("json.serialize", id);
      payload = mheta::obs::json_serialize(value);
    }
    auto s = t.span("lru.put", id);
    lru.put(key, payload);
  }
  auto s = t.span("protocol.envelope", id);
  return serve::ok_envelope(req, payload);
}

void traced_run(const Inputs& in, const PhaseOptions& opts, PhaseResult& out) {
  const std::string socket_path = opts.work_dir + "/serve-mix.sock";
  std::unique_ptr<Daemon> daemon = set_up(in, socket_path);
  serve::SessionRegistry& sessions = daemon->server().sessions();

  // Identically warmed caches, so the real handle_line and every pass of
  // the composition see the same hit/miss sequence.
  serve::Server real(server_options("", kCacheCapacity));
  warm_up(in, real);
  Lru lru_probe(kCacheCapacity, kCacheShards);
  Lru lru_off(kCacheCapacity, kCacheShards);
  Lru lru_on(kCacheCapacity, kCacheShards);
  Tracer off(false);
  Outcome outcome = kMiss;
  for (const std::string& line : warm_lines(in)) {
    for (Lru* lru : {&lru_probe, &lru_off, &lru_on})
      composed_handle_line(line, 0, *lru, sessions, off, outcome);
  }

  const std::size_t n = kReplayLines;
  const auto line_at = [&in](std::size_t i) {
    return make_line(in, in.streams[0][i], request_id(0, i));
  };
  // An untimed pass learns each line's outcome, which names its real span.
  std::vector<Outcome> outcomes(n);
  for (std::size_t i = 0; i < n; ++i)
    composed_handle_line(line_at(i), 0, lru_probe, sessions, off, outcomes[i]);

  // Three timed passes over the same lines: the composition untraced, the
  // real handle_line under one span named by the line's outcome, and the
  // composition with its spans. They take turns chunk by chunk, in rotating
  // order, so host speed drift and warm CPU caches favour none of them.
  // Real and traced answers must match byte for byte.
  constexpr std::size_t kChunk = 500;
  Tracer t(true);
  double off_s = 0, on_s = 0;
  std::vector<std::string> real_responses(kChunk), composed(kChunk);
  const auto real_before = real.cache().stats();
  const auto before = lru_on.stats();
  for (std::size_t first = 0; first < n; first += kChunk) {
    const std::size_t count = std::min(kChunk, n - first);
    for (std::size_t turn = 0; turn < 3; ++turn) {
      const std::size_t pass = (first / kChunk + turn) % 3;
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = first + k;
        const std::string line = line_at(i);
        if (pass == 1) {
          auto s = t.span(kRealSpan[outcomes[i]], request_id(0, i));
          real_responses[k] = real.handle_line(line);
          continue;
        }
        const auto begin = Clock::now();
        if (pass == 0) {
          composed_handle_line(line, 0, lru_off, sessions, off, outcome);
          off_s += seconds_since(begin);
        } else {
          composed[k] = composed_handle_line(line, request_id(0, i), lru_on,
                                             sessions, t, outcome);
          on_s += seconds_since(begin);
        }
      }
    }
    for (std::size_t k = 0; k < count; ++k) {
      out.ledger.check(composed[k] == real_responses[k],
                       "serve-mix replay line " + line_at(first + k) +
                           ": composed " + composed[k] +
                           " vs Server::handle_line " + real_responses[k]);
    }
  }
  const auto after = lru_on.stats();
  const auto real_after = real.cache().stats();
  out.ledger.check(
      after.hits - before.hits == real_after.hits - real_before.hits,
      "serve-mix replay: composed and real caches hit differently");

  // net.wire: client round trip minus the server's own handle_line time for
  // the same line, read as the change in the request-latency histogram sum
  // (one connection, so every change belongs to this line).
  const auto& hist = daemon->server().metrics().histogram(
      "serve_request_seconds",
      mheta::obs::MetricsRegistry::default_time_bounds());
  std::vector<double> wire_s;
  {
    const mheta::util::FdOwner conn = mheta::util::unix_connect(socket_path);
    mheta::util::LineReader reader(conn.fd());
    std::string response;
    for (std::size_t i = 0; i < std::min(n, kWireLines); ++i) {
      const std::string line = line_at(i) + "\n";
      const double sum_before = hist.sum();
      const auto begin = Clock::now();
      if (!mheta::util::write_all(conn.fd(), line) ||
          reader.next(response) != mheta::util::LineReader::Status::kLine) {
        out.ledger.fail("serve-mix: wire connection lost");
        break;
      }
      const double rtt = seconds_since(begin);
      wire_s.push_back(rtt - (hist.sum() - sum_before));
      out.ledger.check(is_ok_envelope(response), "serve-mix wire: " + response);
    }
  }
  daemon->stop();

  // The real handle_line has no child spans of its own. Its self time is
  // its duration minus the child spans of the composition of the same
  // lines, so the work handle_line does outside the named calls (its
  // counters, gauges and histograms) lands there. Every span's duration
  // holds the tracer's floor once (an empty span's duration), which is
  // taken off each real span and each child span first.
  auto spans = t.summarize();
  const double floor_s = empty_span_s();
  std::uint64_t children[kOutcomes] = {};
  const auto& records = t.records();
  for (const Tracer::Record& r : records) {
    if (r.parent < 0) continue;
    const Tracer::Record& root = records[static_cast<std::size_t>(r.parent)];
    for (int o = 0; o < kOutcomes; ++o)
      if (root.parent < 0 && root.name == kComposedSpan[o]) ++children[o];
  }
  double real_total = 0, unattributed = 0;
  for (int o = 0; o < kOutcomes; ++o) {
    const Tracer::Summary composed = spans[kComposedSpan[o]];
    Tracer::Summary& whole = spans[kRealSpan[o]];
    const double named = composed.total_s - composed.self_s -
                         floor_s * static_cast<double>(children[o]);
    const double work =
        whole.total_s - floor_s * static_cast<double>(whole.calls);
    whole.self_s = work - named;
    real_total += work;
    unattributed += whole.self_s;
  }
  add_span_metrics(spans,
                   {"protocol.parse", "protocol.key", "protocol.envelope",
                    "json.serialize", "lru.get", "lru.put", "session.acquire",
                    "ops.predict", "ops.bounds", "ops.whatif", "ops.lint",
                    "server.handle_line.hit", "server.handle_line.miss"},
                   out.metrics);
  Tracer::Summary wire;
  wire.calls = wire_s.size();
  wire.p50_us = median(wire_s) * 1e6;
  for (const double w : wire_s) wire.self_s += w;
  add_span_metrics({{"net.wire", wire}}, {"net.wire"}, out.metrics);

  const auto lookups =
      (after.hits + after.misses) - (before.hits + before.misses);
  out.metrics["server.unattributed_share"] = {
      real_total > 0 ? unattributed / real_total : 0, "share"};
  out.metrics["cache.hit_rate"] = {
      lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0,
      "share"};
  out.metrics["cache.evictions_per_req"] = {
      n > 0 ? static_cast<double>(after.evictions - before.evictions) / n : 0,
      "count"};
  out.metrics["serve.trace_overhead_share"] = {on_s / off_s - 1, "share"};
  out.report.push_back(
      "serve-mix traced replay: " + std::to_string(n) + " lines; composition " +
      std::to_string(off_s) + " s untraced, " + std::to_string(on_s) +
      " s traced; Server::handle_line " + std::to_string(real_total) +
      " s, of which " + std::to_string(unattributed) +
      " s outside the composition's child spans (span floor " +
      std::to_string(floor_s * 1e9) + " ns taken off each)");
  if (!opts.trace_path.empty()) {
    std::ofstream os(opts.trace_path);
    t.write_chrome_trace(os, "mhbench serve-mix");
  }
}

class ServeMix : public Phase {
 public:
  explicit ServeMix(const PhaseOptions& opts)
      : in_(generate(opts.seed, opts.zipf_exponent)),
        clients_(kClients),
        reference_(server_options("", 0)),
        replayed_(in_.bodies.size()) {
    out_.inputs_digest = in_.digest;
    std::vector<double> setups;
    for (int r = 0; r < opts.setup_repeats; ++r) {
      server_.reset();
      const auto begin = Clock::now();
      server_ = std::make_unique<serve::Server>(
          server_options("", kCacheCapacity));
      warm_up(in_, *server_);
      setups.push_back(seconds_since(begin));
    }
    out_.setup_s = median(setups);
    out_.samples["setup_s"] = setups;
    before_ = server_->cache().stats();
  }

  void run_until(Clock::time_point deadline) override {
    play(deadline, SIZE_MAX);
  }

  void run_part(int k, int parts) override {
    const auto share = [parts](int part) {
      return kCompanionRequests * static_cast<std::size_t>(part) /
             static_cast<std::size_t>(parts);
    };
    play(Clock::time_point::max(), share(k + 1) - share(k));
  }

  PhaseResult finish() override {
    const auto after = server_->cache().stats();
    for (Client& c : clients_)
      if (!c.error.empty()) out_.ledger.fail("serve-mix client: " + c.error);

    // Each metric is the median over slices of the slice's value, so a
    // burst of host noise during a few slices does not move it. The p99 is
    // the least over slices instead: on a shared host, contention that
    // preempts a client thread can inflate the tail of nearly every slice
    // of a run, while a slower code path raises every slice's tail alike.
    out_.metrics["serve.requests_per_s"] = {median(block_rps_), "req/s"};
    out_.metrics["serve.p50_ms"] = {median(block_p50_ms_), "ms"};
    out_.metrics["serve.p99_ms"] = {
        block_p99_ms_.empty()
            ? 0.0
            : *std::min_element(block_p99_ms_.begin(), block_p99_ms_.end()),
        "ms"};
    out_.samples["serve.slice_requests_per_s"] = block_rps_;
    out_.samples["serve.slice_p50_ms"] = block_p50_ms_;
    out_.samples["serve.slice_p99_ms"] = block_p99_ms_;
    const auto lookups =
        (after.hits + after.misses) - (before_.hits + before_.misses);
    const double hit_rate =
        lookups > 0 ? static_cast<double>(after.hits - before_.hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    out_.report.push_back(
        "serve-mix: " + std::to_string(requests_) + " requests in " +
        std::to_string(block_rps_.size()) + " slices, " +
        std::to_string(busy_s_) + " s over " + std::to_string(kClients) +
        " closed-loop clients; cache hit rate " + std::to_string(hit_rate) +
        ", evictions " + std::to_string(after.evictions - before_.evictions));
    return std::move(out_);
  }

 private:
  /// One slice: every client plays concurrently until the deadline or
  /// count; then, outside the timed part, the slice's responses are checked
  /// and its statistics kept.
  void play(Clock::time_point deadline, std::size_t count) {
    const auto begin = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back(run_client, std::cref(in_), c, std::ref(*server_),
                           deadline, count,
                           std::ref(clients_[static_cast<std::size_t>(c)]));
    for (auto& th : threads) th.join();
    const double slice_s = seconds_since(begin);

    std::vector<double> latency_s;
    for (int c = 0; c < kClients; ++c) {
      Client& client = clients_[static_cast<std::size_t>(c)];
      const std::size_t first = client.next - client.served.size();
      for (std::size_t k = 0; k < client.served.size(); ++k)
        check(c, first + k, client.served[k]);
      latency_s.insert(latency_s.end(), client.latency_s.begin(),
                       client.latency_s.end());
      client.served.clear();
      client.latency_s.clear();
    }
    if (latency_s.empty()) return;
    requests_ += latency_s.size();
    busy_s_ += slice_s;
    block_rps_.push_back(static_cast<double>(latency_s.size()) / slice_s);
    block_p50_ms_.push_back(quantile(latency_s, 0.50) * 1e3);
    block_p99_ms_.push_back(quantile(latency_s, 0.99) * 1e3);
  }

  /// Client `c`'s `i`-th response against a single-threaded
  /// Server::handle_line replay of its request: replayed once per distinct
  /// request body on a server without a response cache, then compared
  /// under the line's own id.
  void check(int c, std::size_t i, const Served& served) {
    const std::uint32_t key = in_.streams[c][i % kStreamLength];
    std::optional<Served>& replayed = replayed_[key];
    if (!replayed)
      replayed = Served::of(reference_.handle_line(make_line(in_, key, 0)));
    Served expected = *replayed;
    expected.id = std::to_string(request_id(c, i));
    const std::string why = check_served(served, expected);
    if (why.empty()) {
      out_.ledger.ok();
    } else {
      const std::string line = make_line(in_, key, request_id(c, i));
      out_.ledger.fail("serve-mix line " + line + ": " + why + "; replay " +
                       reference_.handle_line(line));
    }
  }

  Inputs in_;
  PhaseResult out_;
  std::unique_ptr<serve::Server> server_;
  std::vector<Client> clients_;
  serve::Server reference_;
  std::vector<std::optional<Served>> replayed_;  ///< per key, once replayed
  mheta::util::ConcurrentLru<std::string, std::string>::Stats before_;
  std::vector<double> block_rps_, block_p50_ms_, block_p99_ms_;  ///< per slice
  std::size_t requests_ = 0;
  double busy_s_ = 0;  ///< time spent in this phase's slices
};

}  // namespace

std::unique_ptr<Phase> start_serve_mix(const PhaseOptions& opts) {
  return std::make_unique<ServeMix>(opts);
}

PhaseResult trace_serve_mix(const PhaseOptions& opts) {
  PhaseResult out;
  const Inputs in = generate(opts.seed, opts.zipf_exponent);
  out.inputs_digest = in.digest;
  traced_run(in, opts, out);
  return out;
}

}  // namespace mhbench
