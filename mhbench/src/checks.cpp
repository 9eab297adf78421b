#include <algorithm>
#include <cstring>
#include <sstream>

#include "analysis/diagnostic.hpp"
#include "fault/scenario_lint.hpp"
#include "workloads.hpp"

namespace mhbench {

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

bool is_ok_envelope(const std::string& response) {
  // The envelope is {"id":<echo>,"kind":"...","ok":true|false,...}; ids in
  // this benchmark are numbers, so the first "ok" member is the envelope's.
  const auto at = response.find(",\"ok\":");
  return at != std::string::npos &&
         response.compare(at + 6, 4, "true") == 0;
}

Served Served::of(const std::string& response) {
  // Every envelope starts {"id":<echo>, (see is_ok_envelope).
  constexpr std::size_t kIdAt = sizeof("{\"id\":") - 1;
  const std::size_t id_end =
      std::min(response.find(',', kIdAt), response.size());
  Served s;
  s.ok = is_ok_envelope(response);
  if (id_end > kIdAt) s.id = response.substr(kIdAt, id_end - kIdAt);
  s.body = fnv1a(std::string_view(response).substr(id_end));
  return s;
}

std::string check_served(const Served& response, const Served& replayed) {
  if (!response.ok) return "error envelope";
  if (response.id != replayed.id)
    return "id " + response.id + " echoed, expected " + replayed.id;
  if (response.body != replayed.body)
    return "differs from the single-threaded replay";
  return "";
}

std::string check_identical(const mheta::search::SearchResult& full,
                            const mheta::search::SearchResult& lane) {
  std::ostringstream why;
  if (!same_bits(full.best_time, lane.best_time)) {
    why.precision(17);
    why << "best_time " << full.best_time << " (full) vs " << lane.best_time
        << " (lane)";
  } else if (!(full.best == lane.best)) {
    why << "best distribution " << full.best.to_string() << " vs "
        << lane.best.to_string();
  } else if (full.evaluations != lane.evaluations) {
    why << "evaluations " << full.evaluations << " vs " << lane.evaluations;
  }
  return why.str();
}

std::string check_bounded(const mheta::search::BoundedStats& bounds,
                          const mheta::core::LaneStats& lanes) {
  if (bounds.violations > 0)
    return std::to_string(bounds.violations) + " lo <= value <= hi violations";
  if (bounds.latched) return "bounds fallback latch engaged";
  if (lanes.fallback_latches > 0) return "lane fallback latch engaged";
  return "";
}

std::string check_lane_value(double lane_s, double predicted_s) {
  if (same_bits(lane_s, predicted_s)) return "";
  std::ostringstream why;
  why.precision(17);
  why << "lane value " << lane_s << " != predict " << predicted_s;
  return why.str();
}

std::string check_cold(const std::string& response,
                       const std::string* earlier) {
  if (!is_ok_envelope(response)) return "error envelope: " + response;
  if (earlier != nullptr && *earlier != response)
    return "cold response differs from an earlier round";
  return "";
}

std::string check_scenario(const mheta::fault::Scenario& scenario,
                           const mheta::cluster::ClusterConfig& cluster) {
  const mheta::analysis::Diagnostics diags =
      mheta::fault::lint_scenario(scenario, nullptr, &cluster);
  if (!diags.has_errors()) return "";
  std::ostringstream why;
  why << "scenario " << scenario.name << " rejected by lint";
  for (const auto& d : diags) why << "; " << d.rule << ": " << d.message;
  return why.str();
}

}  // namespace mhbench
