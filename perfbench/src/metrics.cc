#include "src/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/json.h"

namespace perfbench {

void Latencies::AddMiss() {
  samples_.push_back(std::numeric_limits<double>::infinity());
}

void Latencies::Append(const Latencies& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

size_t Latencies::misses() const {
  return static_cast<size_t>(
      std::count_if(samples_.begin(), samples_.end(),
                    [](double v) { return std::isinf(v); }));
}

namespace {

/// 1-based nearest rank of percentile p among n samples (the epsilon
/// keeps 99.9% of 10000 at 9990 despite binary rounding).
size_t NearestRank(double p, size_t n) {
  const double exact = p / 100.0 * static_cast<double>(n);
  return std::clamp<size_t>(static_cast<size_t>(std::ceil(exact - 1e-9)), 1,
                            std::max<size_t>(n, 1));
}

}  // namespace

double Latencies::Percentile(double p) const {
  if (samples_.empty()) return std::nan("");
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return sorted[NearestRank(p, sorted.size()) - 1];
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (n >= 1 && n - NearestRank(p, n) >= 10) return p;
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  if (values_.count(name) == 0) order_.push_back(name);
  values_[name] = {value, unit};
}

void MetricSet::AddRatio(const std::string& name, const Ratio& ratio,
                         const std::string& unit) {
  Add(name, ratio.value(), unit);
  Add(name + ".base", ratio.base, "count");
}

double MetricSet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? std::nan("") : it->second.first;
}

namespace {

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricSet::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    if (!first) out += ", ";
    first = false;
    laxml::AppendJsonString(name, &out);
    out += ": {\"value\": " + FormatNumber(value) + ", \"unit\": ";
    laxml::AppendJsonString(unit, &out);
    out += "}";
  }
  return out + "}";
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.ToJson() + "}";
}

PromScrape ParsePrometheus(const std::string& text) {
  PromScrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values hold no spaces in
    // this exposition.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + space + 1, &end);
    if (end == line.c_str() + space + 1) continue;
    out[line.substr(0, space)] = v;
  }
  return out;
}

double PromGet(const PromScrape& scrape, const std::string& series) {
  auto it = scrape.find(series);
  return it == scrape.end() ? 0.0 : it->second;
}

double PromDelta(const PromScrape& before, const PromScrape& after,
                 const std::string& series) {
  return PromGet(after, series) - PromGet(before, series);
}

}  // namespace perfbench
