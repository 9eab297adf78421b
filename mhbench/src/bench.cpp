#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "obs/json.hpp"

namespace mhbench {

namespace {

constexpr std::size_t kHarrellDavisMax = 20000;

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / guard(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::fabs(step - 1) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1) / (a + b + 2)) return front * beta_fraction(a, b, x) / a;
  return 1 - front * beta_fraction(b, a, 1 - x) / b;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= kHarrellDavisMax) {
    const double a = (static_cast<double>(n) + 1) * q;
    const double b = (static_cast<double>(n) + 1) * (1 - q);
    double estimate = 0;
    double below = 0;  // I at the previous order statistic's upper edge
    for (std::size_t i = 1; i <= n; ++i) {
      const double upper = incomplete_beta(a, b, static_cast<double>(i) / n);
      estimate += (upper - below) * values[i - 1];
      below = upper;
    }
    return estimate;
  }
  const double rank = std::ceil(q * static_cast<double>(n));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

namespace {

/// A "Vm...:  <n> kB" line of /proc/self/status, in MB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0)
      return std::stod(line.substr(field.size())) / 1024.0;
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }
double resident_mb() { return status_mb("VmRSS:"); }

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Ledger::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Ledger::merge(const Ledger& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& m : other.messages_)
    if (messages_.size() < 8) messages_.push_back(m);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Record r;
  r.name = name;
  r.id = id;
  r.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(r));
  tracer_->open_.push_back(index_);
  tracer_->records_.back().start_s = tracer_->now_s();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->records_[static_cast<std::size_t>(index_)].end_s = tracer_->now_s();
  tracer_->open_.pop_back();
}

void Tracer::Scope::rename(const char* name) {
  if (index_ >= 0)
    tracer_->records_[static_cast<std::size_t>(index_)].name = name;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::vector<double> child_s(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0)
      child_s[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
  }
  std::map<std::string, std::vector<double>> durations;
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double d = r.end_s - r.start_s;
    Summary& s = out[r.name];
    ++s.calls;
    s.total_s += d;
    s.self_s += d - child_s[i];
    durations[r.name].push_back(d);
  }
  for (auto& [name, s] : out) s.p50_us = median(durations[name]) * 1e6;
  return out;
}

void Tracer::write_chrome_trace(std::ostream& os, const std::string& process,
                                std::size_t max_records) const {
  // Children follow their root, so cutting at a root keeps every tree whole.
  std::size_t end = records_.size();
  if (end > max_records) {
    end = max_records;
    while (end > 0 && records_[end].parent >= 0) --end;
  }
  using mheta::obs::json_escape;
  using mheta::obs::json_number;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  os << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
        "\"tid\": 0, \"args\": {\"name\": "
     << json_escape(process) << "}}";
  for (std::size_t i = 0; i < end; ++i) {
    const Record& r = records_[i];
    os << ",\n    {\"name\": " << json_escape(r.name)
       << ", \"cat\": \"mhbench\", \"ph\": \"X\", \"ts\": "
       << json_number(r.start_s * 1e6)
       << ", \"dur\": " << json_number((r.end_s - r.start_s) * 1e6)
       << ", \"pid\": 0, \"tid\": 0, \"args\": {\"span\": " << i
       << ", \"parent\": " << r.parent << ", \"id\": " << r.id << "}}";
  }
  os << "\n  ]\n}\n";
}

double empty_span_s() {
  Tracer t(true);
  for (int i = 0; i < 100000; ++i) auto s = t.span("empty");
  return t.summarize()["empty"].p50_us * 1e-6;
}

void add_span_metrics(const std::map<std::string, Tracer::Summary>& spans,
                      const std::vector<std::string>& names, Metrics& out) {
  for (const std::string& name : names) {
    const auto it = spans.find(name);
    const Tracer::Summary s =
        it != spans.end() ? it->second : Tracer::Summary{};
    out[name + ".calls"] = {static_cast<double>(s.calls), "count"};
    out[name + ".p50_us"] = {s.p50_us, "us"};
    out[name + ".self_s"] = {s.self_s, "s"};
  }
}

}  // namespace mhbench
