// Measurement primitives of the benchmark: latency samples in which a
// failed or refused request is a miss, the percentile rule, ratios that
// carry their base, Prometheus scrape parsing, and the result JSON.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Latency samples in microseconds. A failed or refused request is
/// recorded as a miss: +infinity, so it lands above every latency limit
/// and pushes every percentile it reaches to +infinity.
class Latencies {
 public:
  void Add(double us) { samples_.push_back(us); }
  void AddMiss();
  void Append(const Latencies& other);

  size_t size() const { return samples_.size(); }
  size_t misses() const;

  /// Nearest-rank percentile, p in (0, 100]. NaN when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> samples_;
};

/// The highest of {99.9, 99, 90, 50} with at least ten samples beyond
/// it in a set of `n`; 0 when even the median lacks them.
double HighestSupportedPercentile(size_t n);

/// Median of `values` (NaN when empty).
double Median(std::vector<double> values);

/// A ratio and the count it was taken over. value() is 0 on a 0 base.
struct Ratio {
  double num = 0;
  double base = 0;
  double value() const { return base > 0 ? num / base : 0.0; }
};

/// Named metrics with units, in insertion order, rendered as the
/// benchmark's result JSON.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Adds `name` (the ratio) and `name.base` (its base, a count).
  void AddRatio(const std::string& name, const Ratio& ratio,
                const std::string& unit = "ratio");

  /// The value of `name`; NaN when absent.
  double Get(const std::string& name) const;
  const std::vector<std::string>& names() const { return order_; }

  /// {"name": {"value": v, "unit": u}, ...}; non-finite values render
  /// as null.
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The final result line: correct, attempted, failed, metrics.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

/// A Prometheus text exposition parsed into series -> value, keyed by
/// the full series text (`name` or `name{labels}`).
using PromScrape = std::map<std::string, double>;
PromScrape ParsePrometheus(const std::string& text);

/// Value of `series` in `scrape` (0 when absent).
double PromGet(const PromScrape& scrape, const std::string& series);

/// `after - before` for one series.
double PromDelta(const PromScrape& before, const PromScrape& after,
                 const std::string& series);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
