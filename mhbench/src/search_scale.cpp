// search-scale: a seeded list of distribution searches run to convergence
// one at a time on one thread, over (app, ranks, algorithm, seed) tuples on
// HY1 tiled to 8, 32 and 128 ranks, each through one of the two objective
// set-ups the tools use:
//   full  make_objective inside CachingObjective (mheta-chaos's searches;
//         mheta-serve's search kind runs the same make_objective uncached);
//   lane  LaneObjective behind a BoundedObjective bounds screen, batched
//         through BatchObjective (mheta-profile --search).
// Runs are whole passes over the list: until --seconds are up, or two passes
// as a companion. The traced run replays one pass with a span around every
// objective call and adds the rank-count probes (8 to 512 ranks).
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/suite.hpp"
#include "dist/generators.hpp"
#include "exp/experiment.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mhbench {

namespace {

using mheta::Rng;
namespace cluster = mheta::cluster;
namespace core = mheta::core;
namespace dist = mheta::dist;
namespace exp = mheta::exp;
namespace search = mheta::search;

// Jacobi (nearest-neighbour exchange + reduction) and RNA (tile-wise
// pipeline + reduction): the two clock-recurrence patterns a search spends
// its time in, at a pass length (~3 s here) several passes fit in one run.
const char* const kApps[] = {"jacobi", "rna"};
const int kRanks[] = {8, 32, 128};
const int kProbeRanks[] = {8, 32, 128, 512};
const char* const kAlgorithms[] = {"gbs",  "random",  "hill",
                                   "tabu", "genetic", "anneal"};
constexpr int kAlgorithmCount = 6;
const char* const kProbeApp = "jacobi";
constexpr int kLaneWidth = 32;  // LaneOptions default
// A companion plays two passes, so its per-pass medians rest on more than
// one sample of the slowest searches.
constexpr std::size_t kCompanionPasses = 2;

enum class Setup { kFull, kLane };

struct SearchSpec {
  int world = 0;  ///< index into the worlds (app x ranks)
  int algorithm = 0;
  std::uint64_t seed = 0;
  Setup setup = Setup::kFull;
};

/// HY1's eight node specs tiled to `ranks` nodes: the problem size stays
/// fixed, only the rank count grows.
cluster::ArchConfig tiled_hy1(int ranks) {
  cluster::ArchConfig arch = cluster::make_hy1();
  const auto base = arch.cluster.nodes;
  arch.cluster.nodes.clear();
  for (int i = 0; i < ranks; ++i)
    arch.cluster.nodes.push_back(base[static_cast<std::size_t>(i) %
                                      base.size()]);
  if (ranks != static_cast<int>(base.size()))
    arch.cluster.name = "HY1x" + std::to_string(ranks);
  return arch;
}

/// One calibrated (app, cluster) pair: what a search needs.
struct World {
  World(const char* app, int ranks)
      : workload(*exp::workload_by_name(app)),
        arch(tiled_hy1(ranks)),
        predictor(exp::build_predictor(arch, workload, {})),
        ctx(exp::make_context(arch, workload, {})) {}

  exp::Workload workload;
  cluster::ArchConfig arch;
  core::Predictor predictor;
  dist::DistContext ctx;
  int iterations() const { return workload.iterations; }
};

struct Inputs {
  std::vector<SearchSpec> pass;  ///< every (world, algorithm, setup) once
  std::string digest;
};

Inputs generate(std::uint64_t seed) {
  Inputs in;
  Rng rng(seed, 7);
  const int worlds = static_cast<int>(std::size(kApps) * std::size(kRanks));
  for (int w = 0; w < worlds; ++w)
    for (int a = 0; a < kAlgorithmCount; ++a)
      for (const Setup s : {Setup::kFull, Setup::kLane})
        in.pass.push_back({w, a, rng.next_u64() % 1000000, s});
  shuffle(in.pass, rng);
  std::ostringstream text;
  for (const auto& s : in.pass)
    text << s.world << ' ' << s.algorithm << ' ' << s.seed << ' '
         << static_cast<int>(s.setup) << '\n';
  in.digest = hex64(fnv1a(text.str()));
  return in;
}

std::vector<std::unique_ptr<World>> build_worlds() {
  std::vector<std::unique_ptr<World>> worlds;
  for (const char* app : kApps)
    for (const int ranks : kRanks)
      worlds.push_back(std::make_unique<World>(app, ranks));
  return worlds;
}

/// Counters of the objective chains, summed over solves.
struct ChainStats {
  core::LaneStats lanes;
  core::DeltaStats delta;
  search::BoundedStats bounds;
  double width_weighted = 0;
  std::size_t cache_hits = 0, cache_misses = 0;
  std::uint64_t evaluations[kAlgorithmCount] = {};

  void add(const core::LaneStats& l) {
    lanes.batched_sweeps += l.batched_sweeps;
    lanes.lane_evaluations += l.lane_evaluations;
    lanes.scalar_evaluations += l.scalar_evaluations;
    lanes.idle_lanes += l.idle_lanes;
    lanes.assemble_ns += l.assemble_ns;
    lanes.sweep_ns += l.sweep_ns;
  }
  void add(const core::DeltaStats& d) {
    delta.rows_reused += d.rows_reused;
    delta.rows_computed += d.rows_computed;
  }
  void add(const search::BoundedStats& b) {
    bounds.evaluated += b.evaluated;
    bounds.pruned += b.pruned;
    width_weighted += b.width_rel_mean * static_cast<double>(b.evaluated);
  }
};

/// Runs `algorithm` with the tools' default options, as mheta-serve's
/// search kind (scalar Objective) or mheta-profile --search
/// (BatchObjective) does.
template <class Objective>
search::SearchResult run_search(const char* algorithm, const Objective& f,
                                const World& w, std::uint64_t seed) {
  const dist::GenBlock start = dist::block_dist(w.ctx);
  const std::string a = algorithm;
  if (a == "tabu") return search::tabu_search(start, f, {}, seed);
  if (a == "anneal") {
    // Inherently sequential: annealing consumes the scalar entry only.
    if constexpr (std::is_same_v<Objective, search::Objective>) {
      return search::simulated_annealing(start, f, {}, seed);
    } else {
      return search::simulated_annealing(
          start,
          search::Objective([&f](const dist::GenBlock& d) { return f(d); }),
          {}, seed);
    }
  }
  if (a == "hill") return search::hill_climb(start, f, {}, seed);
  if (a == "genetic") return search::genetic(w.ctx, f, {}, seed);
  const search::SpectrumSpace space(w.ctx, w.arch.spectrum);
  if (a == "gbs") return search::gbs(space, f);
  return search::random_search(space, f, 64, seed);
}

/// Wraps `f` in a span when tracing; returns it unchanged otherwise, so the
/// untraced run calls exactly the production chain.
search::Objective spanned(const char* name, search::Objective f, Tracer& t,
                          std::uint64_t id) {
  if (!t.enabled()) return f;
  return [name, f = std::move(f), &t, id](const dist::GenBlock& d) {
    auto s = t.span(name, id);
    return f(d);
  };
}

/// Runs one search through its objective set-up; `ledger` receives the
/// bounded-pass checks, `stats` (optional) the chains' counters.
search::SearchResult solve(const World& w, const SearchSpec& spec, Tracer& t,
                           std::uint64_t id, Ledger& ledger,
                           ChainStats* stats) {
  const char* algorithm = kAlgorithms[spec.algorithm];
  auto solve_span = t.span("search.solve", id);
  if (spec.setup == Setup::kFull) {
    const search::CachingObjective cached(spanned(
        "objective.full",
        search::make_objective(w.predictor, w.iterations(), w.arch.cluster),
        t, id));
    const auto r = run_search(
        algorithm,
        spanned("objective.cached", search::Objective(cached), t, id), w,
        spec.seed);
    if (stats != nullptr) {
      stats->cache_hits += cached.hits();
      stats->cache_misses += cached.misses();
    }
    return r;
  }

  core::LaneOptions lopts;
  lopts.crosscheck_every = 16;
  lopts.time_components = t.enabled();
  const search::LaneObjective lanes(w.predictor, w.iterations(),
                                    w.arch.cluster, lopts);
  const search::BoundedObjective bounded(
      w.predictor, w.iterations(), search::Objective(lanes),
      [lanes, &t, id](const std::vector<dist::GenBlock>& cs) {
        auto s = t.span("objective.batch", id);
        return lanes.evaluate(cs);
      });
  const search::CachingObjective cached{spanned(
      "objective.bounded",
      search::Objective(
          [&bounded](const dist::GenBlock& d) { return bounded(d); }),
      t, id)};
  const search::BatchObjective batched(
      spanned("objective.cached", search::Objective(cached), t, id),
      [&bounded, &t, id](const std::vector<dist::GenBlock>& cs) {
        auto s = t.span("objective.bounded", id);
        return bounded(cs);
      });
  const auto r = run_search(algorithm, batched, w, spec.seed);
  const std::string where = std::string(w.workload.name) + "/" +
                            w.arch.cluster.name + "/" + algorithm + ": ";
  const std::string why = check_bounded(bounded.stats(), lanes.stats());
  ledger.check(why.empty(), "search " + where + why);
  // The best is never a pruned candidate, so its value is a lane value.
  const std::string exact = check_lane_value(
      r.best_time, w.predictor.predict(r.best, w.iterations()).total_s);
  ledger.check(exact.empty(), "search best " + where + exact);
  if (stats != nullptr) {
    stats->add(lanes.stats());
    stats->add(lanes.scalar_stats());
    stats->add(bounded.stats());
    stats->cache_hits += cached.hits();
    stats->cache_misses += cached.misses();
  }
  return r;
}

/// The full objective's reference: the same search through lanes alone
/// (no bounds screen), which must reach a bit-identical result.
search::SearchResult solve_lane_reference(const World& w,
                                          const SearchSpec& spec) {
  const search::LaneObjective lanes(w.predictor, w.iterations(),
                                    w.arch.cluster);
  return run_search(kAlgorithms[spec.algorithm], search::BatchObjective(lanes),
                    w, spec.seed);
}

/// `count` candidates near Blk: a few random row moves each.
std::vector<dist::GenBlock> candidates(const dist::DistContext& ctx, Rng& rng,
                                       int count) {
  std::vector<dist::GenBlock> out;
  const dist::GenBlock blk = dist::block_dist(ctx);
  for (int c = 0; c < count; ++c) {
    std::vector<std::int64_t> counts;
    for (int i = 0; i < blk.nodes(); ++i) counts.push_back(blk.count(i));
    for (int m = 0; m < 4; ++m) {
      const auto from =
          static_cast<std::size_t>(rng.uniform_int(0, blk.nodes() - 1));
      const auto to =
          static_cast<std::size_t>(rng.uniform_int(0, blk.nodes() - 1));
      const std::int64_t rows = rng.uniform_int(0, counts[from] / 4);
      counts[from] -= rows;
      counts[to] += rows;
    }
    out.emplace_back(std::move(counts));
  }
  return out;
}

/// Every world's lane values on seeded candidates against
/// Predictor::predict.
void check_lane_samples(const std::vector<std::unique_ptr<World>>& worlds,
                        std::uint64_t seed, Ledger& ledger) {
  Rng rng(seed, 11);
  for (const auto& w : worlds) {
    const search::LaneObjective lanes(w->predictor, w->iterations(),
                                      w->arch.cluster);
    const auto cs = candidates(w->ctx, rng, kLaneWidth);
    const auto values = lanes.evaluate(cs);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const std::string why = check_lane_value(
          values[i], w->predictor.predict(cs[i], w->iterations()).total_s);
      ledger.check(why.empty(),
                   "lane sample " + w->arch.cluster.name + ": " + why);
    }
  }
}

double p50_us_of(const std::function<void()>& call, double budget_s) {
  std::vector<double> samples;
  const auto begin = Clock::now();
  while (samples.size() < 5 || seconds_since(begin) < budget_s) {
    const auto t0 = Clock::now();
    call();
    samples.push_back(seconds_since(t0) * 1e6);
  }
  return median(samples);
}

/// core.predict / lanes.batch / bounds.total at 8..512 ranks.
void rank_probes(std::uint64_t seed, double budget_s, PhaseResult& out) {
  for (const int ranks : kProbeRanks) {
    const World w(kProbeApp, ranks);
    const int iters = w.iterations();
    Rng rng(seed, 13 + static_cast<std::uint64_t>(ranks));
    const auto cs = candidates(w.ctx, rng, 8 * kLaneWidth);
    const search::LaneObjective lanes(w.predictor, iters, w.arch.cluster);
    const core::ModelOptions& mo = w.predictor.options();
    const mheta::analysis::bounds::CostBoundsAnalyzer analyzer(
        w.predictor.structure(), w.predictor.params(),
        w.predictor.memory_bytes(),
        {mo.planner_overhead_bytes, mo.max_blocks});
    std::vector<std::vector<dist::GenBlock>> batches;
    for (auto it = cs.begin(); it != cs.end(); it += kLaneWidth)
      batches.emplace_back(it, it + kLaneWidth);
    std::size_t i = 0, b = 0, k = 0;
    double sink = 0;
    const double predict_us = p50_us_of(
        [&] {
          sink += w.predictor.predict(cs[i++ % cs.size()], iters).total_s;
        },
        budget_s);
    const double lanes_us = p50_us_of(
        [&] { sink += lanes.evaluate(batches[b++ % batches.size()])[0]; },
        budget_s);
    const double bounds_us = p50_us_of(
        [&] {
          sink += analyzer.total_bounds(cs[k++ % cs.size()], iters).total.lo;
        },
        budget_s);
    const std::string n = ".n" + std::to_string(ranks);
    out.metrics["core.predict" + n + ".p50_us"] = {predict_us, "us"};
    out.metrics["lanes.batch" + n + ".p50_us"] = {lanes_us, "us"};
    out.metrics["bounds.total" + n + ".p50_us"] = {bounds_us, "us"};
    std::ostringstream line;
    line << "rank probe " << kProbeApp << " n=" << ranks << ": core.predict "
         << predict_us << " us (" << predict_us * 1e3 / ranks
         << " ns/rank/call), lanes.batch " << lanes_us << " us ("
         << lanes_us * 1e3 / ranks << " ns/rank/call, " << kLaneWidth
         << " lanes), bounds.total " << bounds_us << " us ("
         << bounds_us * 1e3 / ranks << " ns/rank/call)";
    if (sink < 0) line << " (negative)";  // keeps the calls observable
    out.report.push_back(line.str());
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

void traced_run(const Inputs& in, const PhaseOptions& opts, PhaseResult& out) {
  const auto worlds = build_worlds();
  const auto world = [&worlds](const SearchSpec& spec) -> const World& {
    return *worlds[static_cast<std::size_t>(spec.world)];
  };
  // One untraced pass warms the predictors' plan caches, a second is the
  // baseline the traced pass is compared with.
  const std::size_t n = in.pass.size();
  Tracer off(false);
  Ledger scratch;
  double off_s = 0, growth_mb = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const double rss_before = resident_mb();
    const auto off_begin = Clock::now();
    for (std::size_t i = 0; i < n; ++i)
      solve(world(in.pass[i]), in.pass[i], off, i, scratch, nullptr);
    off_s = seconds_since(off_begin);
    growth_mb = resident_mb() - rss_before;
  }

  Tracer t(true);
  ChainStats stats;
  const auto on_begin = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const SearchSpec& spec = in.pass[i];
    const auto r = solve(world(spec), spec, t, i, out.ledger, &stats);
    stats.evaluations[spec.algorithm] +=
        static_cast<std::uint64_t>(r.evaluations);
  }
  const double on_s = seconds_since(on_begin);

  const auto spans = t.summarize();
  add_span_metrics(spans,
                   {"search.solve", "objective.full", "objective.cached",
                    "objective.batch", "objective.bounded"},
                   out.metrics);
  // Objective time: spans directly under a solve.
  double objective_s = 0;
  const auto& records = t.records();
  for (const auto& r : records) {
    if (r.parent >= 0 &&
        std::string(records[static_cast<std::size_t>(r.parent)].name) ==
            "search.solve")
      objective_s += r.end_s - r.start_s;
  }
  const auto solve_it = spans.find("search.solve");
  const double solve_s =
      solve_it != spans.end() ? solve_it->second.total_s : 0;
  out.metrics["search.objective_share"] = {ratio(objective_s, solve_s),
                                           "share"};
  for (int a = 0; a < kAlgorithmCount; ++a)
    out.metrics[std::string("search.evals.") + kAlgorithms[a]] = {
        static_cast<double>(stats.evaluations[a]), "count"};
  const auto& l = stats.lanes;
  const auto& d = stats.delta;
  out.metrics["lanes.fill_rate"] = {l.fill_rate(), "share"};
  out.metrics["lanes.scalar_share"] = {
      ratio(l.scalar_evaluations, l.scalar_evaluations + l.lane_evaluations),
      "share"};
  out.metrics["lanes.assemble_share"] = {
      ratio(l.assemble_ns, l.assemble_ns + l.sweep_ns), "share"};
  out.metrics["delta.row_reuse"] = {
      ratio(d.rows_reused, d.rows_reused + d.rows_computed), "share"};
  out.metrics["bounds.prune_rate"] = {stats.bounds.prune_rate(), "share"};
  out.metrics["bounds.width_rel"] = {
      ratio(stats.width_weighted, static_cast<double>(stats.bounds.evaluated)),
      "share"};
  out.metrics["objective.cache_hit_rate"] = {
      ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses), "share"};
  out.metrics["search.trace_overhead_share"] = {on_s / off_s - 1, "share"};
  // Resident memory a warm pass leaves behind: near 0 unless the library
  // keeps memory per search.
  out.metrics["search.rss_growth_mb"] = {growth_mb, "MB"};
  out.report.push_back("search-scale traced replay: " + std::to_string(n) +
                       " searches, untraced " + std::to_string(off_s) +
                       " s, traced " + std::to_string(on_s) + " s");
  rank_probes(opts.seed, 0.1, out);
  if (!opts.trace_path.empty()) {
    std::ofstream os(opts.trace_path);
    t.write_chrome_trace(os, "mhbench search-scale");
  }
}

class SearchScale : public Phase {
 public:
  explicit SearchScale(const PhaseOptions& opts)
      : seed_(opts.seed), in_(generate(opts.seed)) {
    out_.inputs_digest = in_.digest;
    std::vector<double> setups;
    for (int r = 0; r < opts.setup_repeats; ++r) {
      const auto begin = Clock::now();
      worlds_ = build_worlds();
      setups.push_back(seconds_since(begin));
    }
    out_.setup_s = median(setups);
    out_.samples["setup_s"] = setups;
  }

  void run_until(Clock::time_point deadline) override {
    while (Clock::now() < deadline) solve_next();
  }

  void run_part(int k, int parts) override {
    const std::size_t end = kCompanionPasses * in_.pass.size() *
                            static_cast<std::size_t>(k + 1) /
                            static_cast<std::size_t>(parts);
    while (next_ < end) solve_next();
  }

  PhaseResult finish() override {
    // Whole passes only, so every run solves the same mix.
    const std::size_t n = in_.pass.size();
    while (next_ == 0 || next_ % n != 0) solve_next();
    for (std::size_t i = 0; i < n; ++i) {
      const SearchSpec& spec = in_.pass[i];
      if (spec.setup != Setup::kFull) continue;
      const World& w = world(spec);
      const std::string why =
          check_identical(results_[i], solve_lane_reference(w, spec));
      out_.ledger.check(why.empty(), std::string("full vs lane ") +
                                         w.workload.name + "/" +
                                         w.arch.cluster.name + "/" +
                                         kAlgorithms[spec.algorithm] + ": " +
                                         why);
    }
    check_lane_samples(worlds_, seed_, out_.ledger);

    // Each metric is the median over passes of the pass's value.
    std::vector<double> solves, evals, p50, p99;
    for (std::size_t begin = 0; begin < solve_s_.size(); begin += n) {
      const std::vector<double> pass(solve_s_.begin() + begin,
                                     solve_s_.begin() + begin + n);
      double pass_s = 0, pass_evals = 0;
      for (std::size_t i = begin; i < begin + n; ++i) {
        pass_s += solve_s_[i];
        pass_evals += evaluations_[i];
      }
      solves.push_back(static_cast<double>(n) / pass_s);
      evals.push_back(pass_evals / pass_s);
      p50.push_back(quantile(pass, 0.50) * 1e3);
      p99.push_back(quantile(pass, 0.99) * 1e3);
    }
    out_.metrics["search.solves_per_s"] = {median(solves), "solves/s"};
    out_.metrics["search.evals_per_s"] = {median(evals), "candidates/s"};
    out_.metrics["search.solve_p50_ms"] = {median(p50), "ms"};
    out_.metrics["search.solve_p99_ms"] = {median(p99), "ms"};
    out_.samples["search.solve_s"] = solve_s_;
    out_.report.push_back("search-scale: " + std::to_string(solve_s_.size()) +
                          " searches (" + std::to_string(solves.size()) +
                          " passes of " + std::to_string(n) + ")");
    return std::move(out_);
  }

 private:
  const World& world(const SearchSpec& spec) const {
    return *worlds_[static_cast<std::size_t>(spec.world)];
  }

  /// Solves the next search of the pass; later passes must repeat the first
  /// pass's results exactly.
  void solve_next() {
    const std::size_t i = next_ % in_.pass.size();
    const SearchSpec& spec = in_.pass[i];
    Tracer off(false);
    const auto begin = Clock::now();
    auto r = solve(world(spec), spec, off, i, out_.ledger, nullptr);
    solve_s_.push_back(seconds_since(begin));
    evaluations_.push_back(r.evaluations);
    if (results_.size() < in_.pass.size()) {
      results_.push_back(std::move(r));
    } else {
      out_.ledger.check(check_identical(results_[i], r).empty(),
                        "search " + std::to_string(i) +
                            " differs between passes");
    }
    ++next_;
  }

  std::uint64_t seed_;
  Inputs in_;
  PhaseResult out_;
  std::vector<std::unique_ptr<World>> worlds_;
  std::size_t next_ = 0;             ///< searches solved, over all passes
  std::vector<double> solve_s_;      ///< per search solved, in order
  std::vector<double> evaluations_;  ///< per search solved, in order
  std::vector<search::SearchResult> results_;  ///< of the first pass
};

}  // namespace

std::unique_ptr<Phase> start_search_scale(const PhaseOptions& opts) {
  return std::make_unique<SearchScale>(opts);
}

PhaseResult trace_search_scale(const PhaseOptions& opts) {
  PhaseResult out;
  const Inputs in = generate(opts.seed);
  out.inputs_digest = in.digest;
  traced_run(in, opts, out);
  return out;
}

}  // namespace mhbench
