#include "layers.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace perfbench {

double SpanSummary::Ms(const std::string& name) const {
  auto it = ms.find(name);
  return it == ms.end() ? 0.0 : it->second;
}

uint64_t SpanSummary::Count(const std::string& name) const {
  auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}

SpanSummary Summarize(const std::vector<jpmm::TraceSpan>& spans) {
  SpanSummary s;
  std::map<int32_t, std::vector<std::pair<double, double>>> children;
  for (const jpmm::TraceSpan& span : spans) {
    const double ms = span.Seconds() * 1e3;
    s.ms[span.name] += ms;
    ++s.count[span.name];
    if (std::strcmp(span.name, "plan") == 0 && span.detail == "cache-miss") {
      s.plan_miss_ms.push_back(ms);
    }
    if (span.parent >= 0 && span.end_s >= 0) {
      children[span.parent].emplace_back(span.begin_s, span.end_s);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const jpmm::TraceSpan& root = spans[i];
    if (std::strcmp(root.name, "execute") != 0 || root.end_s < 0) continue;
    s.execute_ms += root.Seconds() * 1e3;
    auto& kids = children[static_cast<int32_t>(i)];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = root.begin_s;
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, root.end_s);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    s.covered_ms += covered * 1e3;
  }
  return s;
}

RegistryDelta::RegistryDelta(const jpmm::MetricsSnapshot& before,
                             const jpmm::MetricsSnapshot& after) {
  for (const auto& [name, v] : after.counters) {
    auto it = before.counters.find(name);
    counters_[name] = v - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, h] : after.histograms) {
    auto it = before.histograms.find(name);
    const uint64_t c0 = it == before.histograms.end() ? 0 : it->second.count;
    const double s0 = it == before.histograms.end() ? 0.0 : it->second.sum;
    hists_[name] = {h.count - c0, h.sum - s0};
  }
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double RegistryDelta::HistMean(const std::string& name) const {
  auto it = hists_.find(name);
  if (it == hists_.end() || it->second.first == 0) return 0.0;
  return it->second.second / static_cast<double>(it->second.first);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double Samples::MedianOf(const std::string& name) const {
  auto it = v_.find(name);
  return it == v_.end() ? 0.0 : Median(it->second);
}

size_t Samples::CountOf(const std::string& name) const {
  auto it = v_.find(name);
  return it == v_.end() ? 0 : it->second.size();
}

}  // namespace perfbench
