// The three benchmark phases and the output checks that feed `failed`.
//
// Every run executes all three phases so every metric is defined on every
// workload: the named workload's phase measures for the full --seconds, the
// other two are companions that play a fixed amount of work from the same
// seed. The untraced phases run in interleaved slices (see main.cpp), so a
// companion's numbers span the whole run rather than one short stretch of
// it, and host speed drift averages out alike for every metric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cluster/node.hpp"
#include "core/lanes.hpp"
#include "fault/scenario.hpp"
#include "search/objective.hpp"
#include "search/search.hpp"

namespace mhbench {

/// A seed never used while tuning the benchmark or a change measured by
/// it; a claimed gain is confirmed on this seed.
inline constexpr std::uint64_t kHeldOutSeed = 90017;

/// serve-mix's default key skew. It is an assumption: the repository has
/// no request trace of the daemon. 0.8 lies in the 0.64-0.83 range that
/// Breslau et al. ("Web Caching and Zipf-like Distributions", INFOCOM 1999)
/// fitted to web-proxy request traces; README.md shows how the serve metrics
/// move under 0.64. `--zipf` overrides it for such sensitivity runs.
inline constexpr double kServeZipfExponent = 0.8;

struct PhaseOptions {
  std::uint64_t seed = 1;
  /// Where the traced run writes its spans (Chrome/Perfetto JSON); empty
  /// writes nothing.
  std::string trace_path;
  /// Set-up repetitions; setup_s is their median.
  int setup_repeats = 3;
  /// Directory for run-time files (the serve socket).
  std::string work_dir = ".";
  /// serve-mix key skew: each kind's key is drawn Zipf with this exponent.
  double zipf_exponent = kServeZipfExponent;
};

struct PhaseResult {
  Metrics metrics;  ///< end-to-end (untraced run) or per-layer (traced run)
  Ledger ledger;
  double setup_s = 0;
  std::string inputs_digest;  ///< FNV-1a over the generated inputs
  /// Raw samples behind the metrics, written to the results file.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> report;  ///< human-readable lines
};

/// An untraced phase in progress: set up (and its set-up timed) on
/// construction, then measured in slices interleaved with the other phases,
/// then checked and summarized.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Main phase: measures whole operations until `deadline`.
  virtual void run_until(Clock::time_point deadline) = 0;
  /// Companion: plays part `k` of `parts` of its fixed work.
  virtual void run_part(int k, int parts) = 0;
  /// Completes the pass or cycle in flight, runs the output checks and
  /// returns the end-to-end metrics.
  virtual PhaseResult finish() = 0;
};

std::unique_ptr<Phase> start_serve_mix(const PhaseOptions& opts);
std::unique_ptr<Phase> start_search_scale(const PhaseOptions& opts);
std::unique_ptr<Phase> start_cold_adapt(const PhaseOptions& opts);

/// The traced replays: per-layer metrics, spans written to trace_path.
PhaseResult trace_serve_mix(const PhaseOptions& opts);
PhaseResult trace_search_scale(const PhaseOptions& opts);
PhaseResult trace_cold_adapt(const PhaseOptions& opts);

// --- output checks ---------------------------------------------------------
// Each returns an empty string when the output passes, else the reason.

/// True for a `"ok":true` response envelope.
bool is_ok_envelope(const std::string& response);

/// What the serve-mix checks keep of a response: whether it was a success
/// envelope, the echoed id and a digest of the bytes after it. Responses are
/// too many to keep, and the replay of a request body is kept once and
/// compared under every id it is sent with.
struct Served {
  bool ok = false;
  std::string id;         ///< the id member's text
  std::uint64_t body = 0; ///< FNV-1a of the response after the id member
  static Served of(const std::string& response);
};

/// serve-mix: the response must be a success envelope and byte-identical to
/// the single-threaded Server::handle_line replay of the same line.
std::string check_served(const Served& response, const Served& replayed);

/// search-scale: full-objective and lane-objective results of one search
/// must be bit-identical (best time, best distribution, evaluations).
std::string check_identical(const mheta::search::SearchResult& full,
                            const mheta::search::SearchResult& lane);

/// search-scale: the bounded pass must see no lo <= value <= hi violation
/// and no fallback latch (bounds or lanes).
std::string check_bounded(const mheta::search::BoundedStats& bounds,
                          const mheta::core::LaneStats& lanes);

/// search-scale: a lane-scored value must equal Predictor::predict bit for
/// bit.
std::string check_lane_value(double lane_s, double predicted_s);

/// cold-adapt: the cold response must be a success envelope and, when the
/// same line was answered in an earlier round, byte-identical to it.
std::string check_cold(const std::string& response,
                       const std::string* earlier);

/// cold-adapt: the generated scenario must pass MH016-MH018 against the
/// cluster (warnings allowed, errors are a rejection).
std::string check_scenario(const mheta::fault::Scenario& scenario,
                           const mheta::cluster::ClusterConfig& cluster);

}  // namespace mhbench
