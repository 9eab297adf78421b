// cold-adapt: repeated rounds, each with
//   - a fresh in-process serve::Server that receives one first-touch
//     predict per (input, arch) pair of the 7 apps x 17-arch suite (seeded
//     order and distribution), so every request pays a Session build;
//   - eight fault::run_chaos runs on generated, lint-clean scenarios whose
//     perturbation targets, windows and magnitudes come from the seed. The
//     (app, arch) cases, the run shape and the mix of perturbation kinds
//     are a fixed design, so every seed replays a like amount of work.
// Rounds run in whole cycles over the scenarios: until --seconds are up, or
// two cycles as a companion.
// The traced run replays the same rounds with spans around the session
// build, its parts (exp::build_predictor, instrument::calibrate,
// exp::make_context), the first predict and each adapt policy.
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/suite.hpp"
#include "exp/experiment.hpp"
#include "fault/adapt.hpp"
#include "fault/scenario_io.hpp"
#include "instrument/calibration.hpp"
#include "obs/json.hpp"
#include "serve/ops.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mhbench {

namespace {

using mheta::Rng;
namespace cluster = mheta::cluster;
namespace exp = mheta::exp;
namespace fault = mheta::fault;
namespace serve = mheta::serve;

const char* const kApps[] = {"jacobi", "jacobi-pf", "cg",   "lanczos",
                             "rna",    "multigrid", "isort"};
const char* const kDists[] = {"blk", "bal", "ic", "icbal"};
const char* const kChaosApps[] = {"jacobi", "cg", "lanczos", "rna",
                                  "multigrid"};
const char* const kChaosArchs[] = {"HY1", "HY2", "DC", "IO"};
constexpr int kEpochs = 6;
constexpr int kIterationsPerEpoch = 6;
constexpr int kVariants = 8;               // scenarios per (app, arch) case
constexpr std::size_t kChaosPerRound = 8;  // a cycle: every scenario once
constexpr int kPerturbKinds = 5;
constexpr std::size_t kReplayRounds = 4;  // traced replay
// Metrics are medians over blocks of this many rounds: half a cycle, which
// still holds every (app, arch) case and every perturbation kind equally
// often. A companion plays two cycles.
constexpr std::size_t kBlockRounds = 10;
constexpr std::size_t kCompanionCycles = 2;

struct ColdRequest {
  std::string app, arch, dist;
  std::string line;  ///< the predict request; its id is the request's index
};

struct ChaosCase {
  std::string app;
  cluster::ArchConfig arch;
  fault::Scenario scenario;
};

struct Inputs {
  std::vector<ColdRequest> requests;  ///< one round, in play order
  std::vector<ChaosCase> chaos;  ///< played kChaosPerRound a round, in order
  std::string digest;

  const ChaosCase& chaos_case(std::size_t round, std::size_t k) const {
    return chaos[(round * kChaosPerRound + k) % chaos.size()];
  }
};

/// Scenario `index` of the design: two perturbations whose kinds rotate
/// through all five, so every kind appears equally often in a cycle.
fault::Scenario generate_scenario(Rng& rng, const std::string& name,
                                  int index) {
  fault::Scenario s;
  s.name = name;
  s.seed = 1 + rng.next_u64() % 1000;
  s.epochs = kEpochs;
  s.iterations_per_epoch = kIterationsPerEpoch;
  for (int i = 0; i < 2; ++i) {
    fault::Perturbation p;
    p.kind = static_cast<fault::PerturbKind>((2 * index + i) % kPerturbKinds);
    p.node = p.kind == fault::PerturbKind::kNetContention
                 ? -1
                 : static_cast<int>(rng.uniform_int(0, 7));
    p.epoch_begin = static_cast<int>(rng.uniform_int(0, s.epochs - 1));
    p.epoch_end =
        static_cast<int>(rng.uniform_int(p.epoch_begin + 1, s.epochs));
    switch (p.kind) {
      case fault::PerturbKind::kMemShrink:
        p.magnitude = rng.uniform(0.5, 0.9);
        break;
      case fault::PerturbKind::kNodePause:
        p.magnitude = rng.uniform(0.2, 2.0);
        break;
      default:
        p.magnitude = rng.uniform(1.5, 6.0);
    }
    p.jitter_rel = rng.uniform(0.0, 0.1);
    s.perturbations.push_back(p);
  }
  return s;
}

Inputs generate(std::uint64_t seed) {
  Inputs in;
  Rng rng(seed, 21);
  for (const char* app : kApps) {
    for (const auto& arch : cluster::architecture_suite()) {
      ColdRequest r;
      r.app = app;
      r.arch = arch.cluster.name;
      r.dist = kDists[rng.uniform_int(0, 3)];
      in.requests.push_back(std::move(r));
    }
  }
  shuffle(in.requests, rng);
  std::uint64_t h = fnv1a("cold-adapt");
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    ColdRequest& r = in.requests[i];
    r.line = "{\"id\":" + std::to_string(i) +
             ",\"kind\":\"predict\",\"input\":\"" + r.app +
             "\",\"arch\":\"" + r.arch + "\",\"dist\":\"" + r.dist + "\"}";
    h = fnv1a(r.line, h);
  }
  Rng chaos(seed, 22);
  for (int variant = 0; variant < kVariants; ++variant) {
    for (const char* app : kChaosApps) {
      for (const char* arch : kChaosArchs) {
        ChaosCase c;
        c.app = app;
        c.arch = cluster::find_arch(arch);
        const int index = static_cast<int>(in.chaos.size());
        c.scenario = generate_scenario(
            chaos, "gen-" + std::to_string(seed) + "-" + std::to_string(index),
            index);
        std::ostringstream text;
        fault::save_scenario(text, c.scenario);
        h = fnv1a(c.app + "@" + c.arch.cluster.name + "\n" + text.str(), h);
        in.chaos.push_back(std::move(c));
      }
    }
  }
  in.digest = hex64(h);
  return in;
}

serve::ServerOptions cold_server_options() {
  serve::ServerOptions o;  // never run(): requests go through handle_line
  o.threads = 2;
  return o;
}

/// Round statistics of the untraced run.
struct Rounds {
  std::vector<double> cold_s, adapt_s;
  /// cold_s.size() and adapt_s.size() after each round.
  std::vector<std::size_t> cold_marks, adapt_marks;
  std::map<std::string, std::string> first_response;  ///< by request line
};

/// One round: a fresh server answering every first-touch request, then
/// kChaosPerRound adapt runs. With `timed` false the round is played
/// without recording (set-up).
void play_round(const Inputs& in, std::size_t round, Rounds& rounds,
                Ledger& ledger, bool timed) {
  {
    serve::Server server(cold_server_options());
    for (const ColdRequest& r : in.requests) {
      const auto begin = Clock::now();
      const std::string response = server.handle_line(r.line);
      const double s = seconds_since(begin);
      if (!timed) continue;
      rounds.cold_s.push_back(s);
      const auto it = rounds.first_response.find(r.line);
      const bool seen = it != rounds.first_response.end();
      const std::string why =
          check_cold(response, seen ? &it->second : nullptr);
      if (why.empty()) {
        ledger.ok();
      } else {
        ledger.fail("cold " + r.line + ": " + why);
      }
      if (!seen) rounds.first_response.emplace(r.line, response);
    }
  }
  for (std::size_t k = 0; k < kChaosPerRound; ++k) {
    const ChaosCase& c = in.chaos_case(round, k);
    const std::string lint = check_scenario(c.scenario, c.arch.cluster);
    if (!lint.empty()) {
      if (timed) ledger.fail(lint);
      continue;
    }
    try {
      const exp::Workload w = *exp::workload_by_name(c.app);
      const auto begin = Clock::now();
      fault::run_chaos(c.arch, w, c.scenario, {});
      if (timed) {
        rounds.adapt_s.push_back(seconds_since(begin));
        ledger.ok();
      }
    } catch (const std::exception& e) {
      if (timed) ledger.fail("run_chaos " + c.scenario.name + ": " + e.what());
    }
  }
  if (timed) {
    rounds.cold_marks.push_back(rounds.cold_s.size());
    rounds.adapt_marks.push_back(rounds.adapt_s.size());
  }
}

struct Replay {
  std::uint64_t recalibrations = 0, switches = 0;
  double overhead_s = 0, total_s = 0;
  std::size_t runs = 0, ordered = 0;
};

/// The traced replay of `rounds` rounds.
void replay(const Inputs& in, std::size_t rounds, Tracer& t, Ledger& ledger,
            Replay& out) {
  const exp::ExperimentOptions eopts;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < in.requests.size(); ++i) {
      const ColdRequest& r = in.requests[i];
      const std::uint64_t id = round * in.requests.size() + i;
      const exp::Workload w = *exp::workload_by_name(r.app);
      const cluster::ArchConfig arch = cluster::find_arch(r.arch);
      std::unique_ptr<serve::Session> session;
      {
        auto s = t.span("session.build", id);
        session = std::make_unique<serve::Session>(r.app, r.arch);
      }
      {
        auto s = t.span("ops.first_predict", id);
        const std::string payload = mheta::obs::json_serialize(
            serve::predict_payload(*session, r.dist, 0));
        ledger.check(!payload.empty(), "cold replay: empty payload");
      }
      {
        auto s = t.span("exp.build_predictor", id);
        exp::build_predictor(arch, w, eopts);
      }
      {
        auto s = t.span("instrument.calibrate", id);
        mheta::instrument::calibrate(arch.cluster, eopts.effects);
      }
      {
        auto s = t.span("exp.make_context", id);
        exp::make_context(arch, w, eopts);
      }
    }
    const fault::Policy policies[3] = {fault::Policy::kStatic,
                                       fault::Policy::kAdaptive,
                                       fault::Policy::kOracle};
    const char* const names[3] = {"fault.run_policy.static",
                                  "fault.run_policy.adaptive",
                                  "fault.run_policy.oracle"};
    for (std::size_t k = 0; k < kChaosPerRound; ++k) {
      const ChaosCase& c = in.chaos_case(round, k);
      const exp::Workload w = *exp::workload_by_name(c.app);
      fault::PolicyResult results[3];
      for (int p = 0; p < 3; ++p) {
        auto s = t.span(names[p], round);
        results[p] = fault::run_policy(policies[p], c.arch, w, c.scenario, {});
      }
      const fault::PolicyResult& adaptive = results[1];
      out.recalibrations += static_cast<std::uint64_t>(adaptive.recalibrations);
      out.switches += static_cast<std::uint64_t>(adaptive.switches);
      out.overhead_s += adaptive.overhead_s;
      out.total_s += adaptive.total_s;
      ++out.runs;
      if (results[2].total_s <= adaptive.total_s &&
          adaptive.total_s <= results[0].total_s)
        ++out.ordered;
    }
  }
}

void traced_run(const Inputs& in, const PhaseOptions& opts, PhaseResult& out) {
  // One untraced replay warms up, a second is the baseline the traced one
  // is compared with.
  Tracer off(false);
  Ledger scratch;
  Replay ignored;
  double off_s = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const auto off_begin = Clock::now();
    replay(in, kReplayRounds, off, scratch, ignored);
    off_s = seconds_since(off_begin);
  }

  Tracer t(true);
  Replay r;
  const auto on_begin = Clock::now();
  replay(in, kReplayRounds, t, out.ledger, r);
  const double on_s = seconds_since(on_begin);

  add_span_metrics(t.summarize(),
                   {"session.build", "exp.build_predictor",
                    "instrument.calibrate", "exp.make_context",
                    "ops.first_predict", "fault.run_policy.static",
                    "fault.run_policy.adaptive", "fault.run_policy.oracle"},
                   out.metrics);
  const auto share = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  out.metrics["fault.recalibrations"] = {
      static_cast<double>(r.recalibrations), "count"};
  out.metrics["fault.switches"] = {static_cast<double>(r.switches), "count"};
  out.metrics["fault.overhead_share"] = {share(r.overhead_s, r.total_s),
                                         "share"};
  out.metrics["adapt.ordered_share"] = {
      share(static_cast<double>(r.ordered), static_cast<double>(r.runs)),
      "share"};
  out.metrics["cold.trace_overhead_share"] = {on_s / off_s - 1, "share"};
  out.report.push_back("cold-adapt traced replay: " +
                       std::to_string(kReplayRounds) + " rounds, untraced " +
                       std::to_string(off_s) + " s, traced " +
                       std::to_string(on_s) + " s");
  if (!opts.trace_path.empty()) {
    std::ofstream os(opts.trace_path);
    t.write_chrome_trace(os, "mhbench cold-adapt");
  }
}

class ColdAdapt : public Phase {
 public:
  explicit ColdAdapt(const PhaseOptions& opts) : in_(generate(opts.seed)) {
    out_.inputs_digest = in_.digest;
    // Set-up: lint every scenario and play one unrecorded round, so code
    // and allocator warm-up stay out of the timed rounds.
    std::vector<double> setups;
    for (int r = 0; r < opts.setup_repeats; ++r) {
      const auto begin = Clock::now();
      Rounds unused;
      Ledger ignored;
      for (const ChaosCase& c : in_.chaos)
        check_scenario(c.scenario, c.arch.cluster);
      play_round(in_, static_cast<std::size_t>(r), unused, ignored, false);
      setups.push_back(seconds_since(begin));
    }
    out_.setup_s = median(setups);
    out_.samples["setup_s"] = setups;
  }

  void run_until(Clock::time_point deadline) override {
    while (Clock::now() < deadline) play_next();
  }

  void run_part(int k, int parts) override {
    const std::size_t end = kCompanionCycles * cycle() *
                            static_cast<std::size_t>(k + 1) /
                            static_cast<std::size_t>(parts);
    while (next_ < end) play_next();
  }

  PhaseResult finish() override {
    while (next_ == 0 || next_ % cycle() != 0) play_next();
    // Each metric is the median over blocks of the block's value.
    std::vector<double> cold_p50, cold_p99, adapt_p50, adapt_p90;
    std::size_t cold_begin = 0, adapt_begin = 0;
    for (std::size_t end = kBlockRounds; end <= next_; end += kBlockRounds) {
      const std::size_t cold_end = rounds_.cold_marks[end - 1];
      const std::size_t adapt_end = rounds_.adapt_marks[end - 1];
      const std::vector<double> cold(rounds_.cold_s.begin() + cold_begin,
                                     rounds_.cold_s.begin() + cold_end);
      const std::vector<double> adapt(rounds_.adapt_s.begin() + adapt_begin,
                                      rounds_.adapt_s.begin() + adapt_end);
      cold_p50.push_back(quantile(cold, 0.50) * 1e3);
      cold_p99.push_back(quantile(cold, 0.99) * 1e3);
      adapt_p50.push_back(quantile(adapt, 0.50) * 1e3);
      adapt_p90.push_back(quantile(adapt, 0.90) * 1e3);
      cold_begin = cold_end;
      adapt_begin = adapt_end;
    }
    out_.metrics["cold.p50_ms"] = {median(cold_p50), "ms"};
    out_.metrics["cold.p99_ms"] = {median(cold_p99), "ms"};
    out_.metrics["adapt.run_p50_ms"] = {median(adapt_p50), "ms"};
    out_.metrics["adapt.run_p90_ms"] = {median(adapt_p90), "ms"};
    out_.samples["cold.request_s"] = rounds_.cold_s;
    out_.samples["adapt.run_s"] = rounds_.adapt_s;
    out_.report.push_back(
        "cold-adapt: " + std::to_string(next_) + " rounds (" +
        std::to_string(rounds_.cold_s.size()) + " cold requests, " +
        std::to_string(rounds_.adapt_s.size()) + " adapt runs)");
    return std::move(out_);
  }

 private:
  /// Rounds in one cycle: every scenario played once.
  std::size_t cycle() const { return in_.chaos.size() / kChaosPerRound; }
  void play_next() { play_round(in_, next_++, rounds_, out_.ledger, true); }

  Inputs in_;
  PhaseResult out_;
  Rounds rounds_;
  std::size_t next_ = 0;  ///< rounds played so far
};

}  // namespace

std::unique_ptr<Phase> start_cold_adapt(const PhaseOptions& opts) {
  return std::make_unique<ColdAdapt>(opts);
}

PhaseResult trace_cold_adapt(const PhaseOptions& opts) {
  PhaseResult out;
  const Inputs in = generate(opts.seed);
  out.inputs_digest = in.digest;
  traced_run(in, opts, out);
  return out;
}

}  // namespace mhbench
