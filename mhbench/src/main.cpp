// mhbench: the MHETA benchmark driver.
//
//   mhbench --workload serve-mix|search-scale|cold-adapt --seed N
//           --seconds S --trace 0|1 [--out-dir DIR] [--work-dir DIR]
//           [--zipf EXPONENT]
//   mhbench --self-test
//
// Every run plays all three phases from the seed: the named workload's
// phase measures for S seconds and the other two are companions playing a
// fixed amount of work, so every metric is defined on every workload. With
// --trace 0 the phases run in about S one-second slices, each companion
// playing its share after each slice of the main phase, and the end-to-end
// metrics are printed; --trace 1 prints the per-layer metrics of the traced
// replays. The last stdout line is the JSON result; the results file
// under --out-dir adds the host fingerprint, input digests and raw samples.
// --zipf changes serve-mix's key skew for sensitivity runs; results made
// with it are not comparable with the default ones.
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace {

using namespace mhbench;
using mheta::obs::json_escape;
using mheta::obs::json_number;

struct Workload {
  const char* name;
  std::unique_ptr<Phase> (*start)(const PhaseOptions&);
  PhaseResult (*trace)(const PhaseOptions&);
};
const Workload kWorkloads[] = {
    {"serve-mix", start_serve_mix, trace_serve_mix},
    {"search-scale", start_search_scale, trace_search_scale},
    {"cold-adapt", start_cold_adapt, trace_cold_adapt},
};

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fingerprint_json() {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << json_escape(cpu_model())
     << ", \"compiler\": " << json_escape(MHBENCH_COMPILER)
     << ", \"build_type\": " << json_escape(MHBENCH_BUILD_TYPE) << "}";
  return os.str();
}

std::string samples_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_number(v[i]);
  }
  return s + "]";
}

std::string metrics_json(const Metrics& metrics) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) s += ", ";
    first = false;
    s += json_escape(name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_escape(m.unit) + "}";
  }
  return s + "}";
}

int usage() {
  std::cerr << "usage: mhbench --workload serve-mix|search-scale|cold-adapt "
               "--seed N --seconds S --trace 0|1\n"
               "               [--out-dir DIR] [--work-dir DIR] "
               "[--zipf EXPONENT]\n"
               "       mhbench --self-test\n";
  return 2;
}

// --- self-test: every output check must fire on a corrupted input ---------

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool fires, const std::string& why,
                                  const char* what) {
    const bool ok = fires ? !why.empty() : why.empty();
    std::cout << (ok ? "ok    " : "FAIL  ") << what
              << (why.empty() ? "" : "  [" + why.substr(0, 100) + "]") << "\n";
    if (!ok) ++failures;
  };

  mheta::serve::ServerOptions so;
  so.threads = 2;
  mheta::serve::Server server(so);
  const std::string good = server.handle_line(
      "{\"id\":7,\"kind\":\"predict\",\"input\":\"jacobi\",\"arch\":\"HY1\"}");
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 1;
  const std::string renumbered = server.handle_line(
      "{\"id\":8,\"kind\":\"predict\",\"input\":\"jacobi\",\"arch\":\"HY1\"}");
  const std::string error = server.handle_line(
      "{\"id\":7,\"kind\":\"predict\",\"input\":\"no-such-app\","
      "\"arch\":\"HY1\"}");
  expect(false, check_served(Served::of(good), Served::of(good)),
         "serve: identical response passes");
  expect(true, check_served(Served::of(flipped), Served::of(good)),
         "serve: corrupted response");
  expect(true, check_served(Served::of(renumbered), Served::of(good)),
         "serve: wrong id echoed");
  expect(true, check_served(Served::of(error), Served::of(error)),
         "serve: error envelope");

  namespace search = mheta::search;
  const auto session = server.sessions().acquire("jacobi", "HY1");
  const auto& predictor = session->predictor();
  const auto& cluster = session->arch().cluster;
  const int iters = session->workload().iterations;
  const search::LaneObjective lanes(predictor, iters, cluster);
  const search::SpectrumSpace space(session->context(),
                                    session->arch().spectrum);
  const auto full =
      search::gbs(space, search::make_objective(predictor, iters, cluster));
  const auto lane = search::gbs(space, search::BatchObjective(lanes));
  expect(false, check_identical(full, lane),
         "search: full and lane results agree");
  auto nudged = lane;
  nudged.best_time = std::nextafter(nudged.best_time, 1e300);
  expect(true, check_identical(full, nudged), "search: best_time one ulp off");
  auto moved = lane;
  std::vector<std::int64_t> counts;
  for (int i = 0; i < moved.best.nodes(); ++i)
    counts.push_back(moved.best.count(i));
  counts[0] += 1;
  counts[1] -= 1;
  moved.best = mheta::dist::GenBlock(counts);
  expect(true, check_identical(full, moved),
         "search: best distribution differs");
  auto recounted = lane;
  ++recounted.evaluations;
  expect(true, check_identical(full, recounted),
         "search: evaluation count differs");
  search::BoundedStats bounds;
  mheta::core::LaneStats lane_stats;
  expect(false, check_bounded(bounds, lane_stats),
         "search: clean bounded pass");
  bounds.violations = 1;
  expect(true, check_bounded(bounds, lane_stats), "search: bounds violation");
  bounds.violations = 0;
  bounds.latched = true;
  expect(true, check_bounded(bounds, lane_stats), "search: bounds latch");
  bounds.latched = false;
  lane_stats.fallback_latches = 1;
  expect(true, check_bounded(bounds, lane_stats), "search: lane latch");
  const double v = predictor.predict(lane.best, iters).total_s;
  expect(false, check_lane_value(lane.best_time, v),
         "search: lane value == predict");
  expect(true, check_lane_value(std::nextafter(v, 0.0), v),
         "search: lane value one ulp off");

  expect(false, check_cold(good, nullptr), "cold: first response passes");
  expect(false, check_cold(good, &good), "cold: identical across rounds");
  expect(true, check_cold(good, &flipped), "cold: differs across rounds");
  expect(true, check_cold(error, nullptr), "cold: error envelope");
  mheta::fault::Scenario s;
  s.name = "self-test";
  s.epochs = 4;
  s.iterations_per_epoch = 4;
  mheta::fault::Perturbation p;
  p.node = 1;
  p.epoch_begin = 1;
  p.epoch_end = 3;
  p.magnitude = 2.0;
  s.perturbations.push_back(p);
  expect(false, check_scenario(s, cluster), "cold: clean scenario passes");
  auto bad = s;
  bad.perturbations[0].epoch_end = 1;
  expect(true, check_scenario(bad, cluster), "cold: empty window (MH017)");
  bad = s;
  bad.perturbations[0].node = 99;
  expect(true, check_scenario(bad, cluster), "cold: missing node (MH016)");
  bad = s;
  bad.perturbations[0].magnitude = 0.5;
  expect(true, check_scenario(bad, cluster), "cold: slowdown below 1 (MH018)");

  std::cout << (failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_build/results";
  std::string work_dir = ".bench_build/run";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  double zipf_exponent = kServeZipfExponent;
  bool have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") return self_test();
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--out-dir") {
        out_dir = value;
      } else if (arg == "--work-dir") {
        work_dir = value;
      } else if (arg == "--zipf") {
        zipf_exponent = std::stod(value);
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  const Workload* main_workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload == w.name) main_workload = &w;
  if (main_workload == nullptr || !have_seed || !(seconds > 0) ||
      (trace != 0 && trace != 1) || !(zipf_exponent >= 0))
    return usage();

  try {
    std::filesystem::create_directories(out_dir);
    std::filesystem::create_directories(work_dir);
    const std::string tag = workload + "-seed" + std::to_string(seed) +
                            "-trace" + std::to_string(trace);

    std::vector<const Workload*> order{main_workload};
    for (const Workload& w : kWorkloads)
      if (&w != main_workload) order.push_back(&w);
    const auto options = [&](const Workload* w) {
      PhaseOptions o;
      o.seed = seed;
      o.setup_repeats = w == main_workload ? 5 : 1;
      o.work_dir = work_dir;
      o.zipf_exponent = zipf_exponent;
      if (trace == 1)
        o.trace_path =
            out_dir + "/spans-" + workload + "-" + w->name + ".json";
      return o;
    };

    std::vector<std::pair<std::string, PhaseResult>> results;
    double rss_mb = 0;
    if (trace == 1) {
      for (const Workload* w : order)
        results.emplace_back(w->name, w->trace(options(w)));
    } else {
      std::vector<std::unique_ptr<Phase>> phases;
      for (const Workload* w : order) phases.push_back(w->start(options(w)));
      // Peak resident memory once every phase is set up: a fixed amount of
      // work, so the figure does not grow with how much the timed slices
      // get done. Memory the library keeps per search shows in the traced
      // run's search.rss_growth_mb instead.
      rss_mb = peak_rss_mb();
      const int slices = std::max(1, static_cast<int>(std::lround(seconds)));
      const auto slice = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds / slices));
      for (int k = 0; k < slices; ++k) {
        phases[0]->run_until(Clock::now() + slice);
        for (std::size_t i = 1; i < phases.size(); ++i)
          phases[i]->run_part(k, slices);
      }
      for (std::size_t i = 0; i < phases.size(); ++i)
        results.emplace_back(order[i]->name, phases[i]->finish());
    }

    Metrics metrics;
    Ledger ledger;
    for (const auto& [name, r] : results) {
      for (const auto& line : r.report) std::cout << line << "\n";
      for (const auto& [metric, m] : r.metrics) metrics[metric] = m;
      ledger.merge(r.ledger);
    }
    if (trace == 0) {
      metrics["setup_s"] = {results.front().second.setup_s, "s"};
      metrics["rss_mb"] = {rss_mb, "MB"};
    }

    const double fail_rate =
        ledger.attempted() > 0 ? static_cast<double>(ledger.failed()) /
                                     static_cast<double>(ledger.attempted())
                               : 0;
    for (const auto& m : ledger.messages())
      std::cout << "FAILED: " << m << "\n";
    std::cout << "fail_rate " << fail_rate << " (" << ledger.failed() << " of "
              << ledger.attempted() << " checked operations)\n";
    std::cout << "host " << fingerprint_json() << "\n";
    std::cout << "held-out seed " << kHeldOutSeed << "\n";
    for (const auto& [phase, r] : results)
      std::cout << "inputs " << phase << " digest " << r.inputs_digest << "\n";

    std::ofstream file(out_dir + "/" + tag + ".json");
    file << "{\n  \"workload\": " << json_escape(workload)
         << ",\n  \"seed\": " << seed
         << ",\n  \"seconds\": " << json_number(seconds)
         << ",\n  \"trace\": " << trace
         << ",\n  \"zipf_exponent\": " << json_number(zipf_exponent)
         << ",\n  \"held_out_seed\": " << kHeldOutSeed
         << ",\n  \"host\": " << fingerprint_json()
         << ",\n  \"attempted\": " << ledger.attempted()
         << ",\n  \"failed\": " << ledger.failed()
         << ",\n  \"fail_rate\": " << json_number(fail_rate)
         << ",\n  \"metrics\": " << metrics_json(metrics)
         << ",\n  \"phases\": {";
    bool first = true;
    for (const auto& [phase, r] : results) {
      file << (first ? "" : ",") << "\n    " << json_escape(phase)
           << ": {\"inputs_digest\": " << json_escape(r.inputs_digest)
           << ", \"setup_s\": " << json_number(r.setup_s) << ", \"samples\": {";
      first = false;
      bool first_sample = true;
      for (const auto& [name, v] : r.samples) {
        file << (first_sample ? "" : ", ") << json_escape(name) << ": "
             << samples_json(v);
        first_sample = false;
      }
      file << "}}";
    }
    file << "\n  }\n}\n";

    std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << ledger.attempted()
              << ", \"failed\": " << ledger.failed()
              << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "mhbench: " << e.what() << "\n";
    return 1;
  }
}
