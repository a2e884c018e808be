// Per-layer attribution for the traced benchmark run: per-operation stage
// times from one execution's span tree, deltas of the process-wide metrics
// registry around a timed loop, and the small statistics both need.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/trace.h"

namespace perfbench {

/// Busy time per span name for one traced operation. Spans of one name are
/// summed, so parallel workers can make a stage exceed the wall time.
struct SpanSummary {
  std::map<std::string, double> ms;
  std::map<std::string, uint64_t> count;
  /// "plan" spans that ran the optimizer (detail "cache-miss").
  std::vector<double> plan_miss_ms;
  /// Total duration of the "execute" roots, and how much of it their
  /// direct children cover (union of intervals).
  double execute_ms = 0.0;
  double covered_ms = 0.0;

  double Ms(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
};

SpanSummary Summarize(const std::vector<jpmm::TraceSpan>& spans);

/// Counter and histogram differences between two registry snapshots.
class RegistryDelta {
 public:
  RegistryDelta(const jpmm::MetricsSnapshot& before,
                const jpmm::MetricsSnapshot& after);

  uint64_t Counter(const std::string& name) const;
  /// Mean recorded value, 0 when nothing was recorded.
  double HistMean(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, std::pair<uint64_t, double>> hists_;  // count, sum
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}
/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// Named per-operation samples, reduced to their medians.
class Samples {
 public:
  void Add(const std::string& name, double v) { v_[name].push_back(v); }
  void Merge(const Samples& o) {
    for (const auto& [name, v] : o.v_) {
      v_[name].insert(v_[name].end(), v.begin(), v.end());
    }
  }
  double MedianOf(const std::string& name) const;
  size_t CountOf(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> v_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
