// Shared pieces of the MHETA benchmark driver: timing and statistics, the
// seeded shuffle and digests of generated inputs, the pass/fail ledger
// behind `attempted`/`failed`, metrics and the in-memory span tracer.
//
// The benchmark measures the library strictly from outside: every span is
// recorded here, around calls into public functions of src/, and no library
// code is changed to make it measurable.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mhbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Quantile `q` of `values` (copied and sorted); 0 when empty. Samples of
/// up to 20000 values use the Harrell-Davis estimator (a beta-weighted mean
/// of all order statistics), so a percentile of a few hundred solve times
/// does not jump between neighbouring order statistics from run to run;
/// larger samples use the nearest rank.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Fisher-Yates shuffle driven by the library's deterministic Rng.
template <class T>
void shuffle(std::vector<T>& v, mheta::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
    std::swap(v[i - 1], v[static_cast<std::size_t>(j)]);
  }
}

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();
/// Current resident set size of this process (VmRSS), in MB.
double resident_mb();

/// FNV-1a 64 over a byte string, chainable through `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 1469598103934665603ULL);
std::string hex64(std::uint64_t v);

/// Counts attempted and failed operations; keeps the first few failure
/// messages for the report.
class Ledger {
 public:
  void ok() { ++attempted_; }
  void fail(const std::string& what);
  /// Records one attempted operation, failed unless `passed`.
  void check(bool passed, const std::string& what) {
    passed ? ok() : fail(what);
  }
  void merge(const Ledger& other);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// One reported metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Single-threaded in-memory span recorder. Spans nest through RAII scopes;
/// each record keeps its name, start, end, parent and request/solve id.
/// A disabled tracer records nothing and costs one branch per scope, which
/// is how the traced replays measure their own overhead.
class Tracer {
 public:
  struct Record {
    const char* name = "";  ///< a string literal
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  ///< index into records(), -1 for a root span
    std::uint64_t id = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Renames the span before it closes (a handle_line span learns whether
    /// it was a hit or a miss only at the end).
    void rename(const char* name);

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Opens a span named by a string literal.
  Scope span(const char* name, std::uint64_t id = 0) {
    return Scope(this, name, id);
  }
  const std::vector<Record>& records() const { return records_; }

  struct Summary {
    std::uint64_t calls = 0;
    double p50_us = 0;
    double total_s = 0;
    double self_s = 0;  ///< duration minus the direct children's durations
  };
  /// Per-name totals. Spans on one thread never overlap their siblings, so
  /// a span's self time is its duration minus its direct children's.
  std::map<std::string, Summary> summarize() const;

  /// Writes the spans as Chrome/Perfetto trace JSON ("X" slices, the shape
  /// obs/perfetto emits), with parent and id in each slice's args. Only the
  /// first whole root-span trees up to `max_records` spans are written, to
  /// keep the file viewable.
  void write_chrome_trace(std::ostream& os, const std::string& process,
                          std::size_t max_records = 50000) const;

 private:
  double now_s() const { return seconds_since(origin_); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;  // stack of open span indices
};

/// The tracer's floor: the median duration of an empty span, which every
/// recorded duration holds once.
double empty_span_s();

/// Adds S.calls, S.p50_us and S.self_s for each named span.
void add_span_metrics(const std::map<std::string, Tracer::Summary>& spans,
                      const std::vector<std::string>& names, Metrics& out);

}  // namespace mhbench
