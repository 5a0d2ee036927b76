#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/check.hpp"
#include "util/sync.hpp"

namespace taglets::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  TAGLETS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
                "Histogram: bucket bounds must be ascending");
}

void Histogram::observe(double v) {
  // First bucket whose upper bound admits v; the +inf overflow bucket
  // is counts_.back().
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + v,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

std::vector<double> default_latency_buckets_ms() {
  std::vector<double> bounds;
  for (int tenth = -20; tenth <= 40; ++tenth) {  // 10^-2 ms .. 10^4 ms
    bounds.push_back(std::pow(10.0, tenth / 10.0));
  }
  return bounds;
}

double histogram_quantile(const Histogram::Snapshot& snap, double q) {
  if (snap.count == 0 || snap.counts.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(snap.count);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < snap.counts.size(); ++i) {
    const std::uint64_t in_bucket = snap.counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      if (i >= snap.bounds.size()) {
        // +inf overflow bucket: the best finite statement we can make
        // is "at least the largest finite bound".
        return snap.bounds.empty() ? 0.0 : snap.bounds.back();
      }
      const double lo = i == 0 ? 0.0 : snap.bounds[i - 1];
      const double hi = snap.bounds[i];
      const double into =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, into));
    }
    seen += in_bucket;
  }
  return snap.bounds.empty() ? 0.0 : snap.bounds.back();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"source\":\"" << json_escape(source) << "\",\"meta\":{";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(meta[i].first) << "\":\""
       << json_escape(meta[i].second) << "\"";
  }
  os << "},\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(counters[i].name) << "\":" << counters[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << json_escape(gauges[i].name)
       << "\":" << json_number(gauges[i].value);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const Histogram::Snapshot& snap = histograms[i].snap;
    if (i > 0) os << ",";
    os << "\"" << json_escape(histograms[i].name)
       << "\":{\"count\":" << snap.count << ",\"sum\":" << json_number(snap.sum)
       << ",\"mean\":" << json_number(snap.mean())
       << ",\"p50\":" << json_number(histogram_quantile(snap, 0.50))
       << ",\"p99\":" << json_number(histogram_quantile(snap, 0.99))
       << ",\"bounds\":[";
    for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
      if (b > 0) os << ",";
      os << json_number(snap.bounds[b]);
    }
    os << "],\"counts\":[";
    for (std::size_t b = 0; b < snap.counts.size(); ++b) {
      if (b > 0) os << ",";
      os << snap.counts[b];
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

struct MetricsRegistry::State {
  mutable util::Mutex mu{"obs.metrics", util::lockrank::kObsMetrics};
  // std::map keeps snapshots sorted by name; unique_ptr keeps returned
  // references stable across rehash-free inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters
      TAGLETS_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Gauge>> gauges TAGLETS_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>> histograms
      TAGLETS_GUARDED_BY(mu);

  bool name_taken(const std::string& name) const TAGLETS_REQUIRES(mu) {
    return counters.count(name) + gauges.count(name) +
               histograms.count(name) >
           0;
  }
};

MetricsRegistry::MetricsRegistry() : state_(std::make_unique<State>()) {}

MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(const std::string& name) {
  State& s = state();
  util::MutexLock lock(s.mu);
  auto it = s.counters.find(name);
  if (it == s.counters.end()) {
    TAGLETS_CHECK(!(s.name_taken(name)),
                  "MetricsRegistry: '" + name +
                      "' already registered as another kind");
    it = s.counters.emplace(name, std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  State& s = state();
  util::MutexLock lock(s.mu);
  auto it = s.gauges.find(name);
  if (it == s.gauges.end()) {
    TAGLETS_CHECK(!(s.name_taken(name)),
                  "MetricsRegistry: '" + name +
                      "' already registered as another kind");
    it = s.gauges.emplace(name, std::unique_ptr<Gauge>(new Gauge())).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  State& s = state();
  util::MutexLock lock(s.mu);
  auto it = s.histograms.find(name);
  if (it == s.histograms.end()) {
    TAGLETS_CHECK(!(s.name_taken(name)),
                  "MetricsRegistry: '" + name +
                      "' already registered as another kind");
    it = s.histograms
             .emplace(name, std::make_unique<Histogram>(std::move(bounds)))
             .first;
  } else {
    TAGLETS_CHECK_EQ(it->second->bounds_, bounds,
                     "MetricsRegistry: histogram '" + name +
                         "' re-registered with different buckets");
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot(std::string source) const {
  State& s = state();
  util::MutexLock lock(s.mu);
  MetricsSnapshot out;
  out.source = std::move(source);
  out.counters.reserve(s.counters.size());
  for (const auto& [name, c] : s.counters) {
    out.counters.push_back({name, c->value()});
  }
  out.gauges.reserve(s.gauges.size());
  for (const auto& [name, g] : s.gauges) {
    out.gauges.push_back({name, g->value()});
  }
  out.histograms.reserve(s.histograms.size());
  for (const auto& [name, h] : s.histograms) {
    out.histograms.push_back({name, h->snapshot()});
  }
  return out;
}

std::string MetricsRegistry::to_text() const {
  State& s = state();
  util::MutexLock lock(s.mu);
  std::ostringstream os;
  for (const auto& [name, c] : s.counters) {
    os << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : s.gauges) {
    os << name << " " << json_number(g->value()) << "\n";
  }
  for (const auto& [name, h] : s.histograms) {
    const Histogram::Snapshot snap = h->snapshot();
    os << name << " count=" << snap.count << " sum=" << json_number(snap.sum)
       << " mean=" << json_number(snap.mean()) << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  State& s = state();
  util::MutexLock lock(s.mu);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : s.counters) {
    if (!first) os << ",";
    os << "\"" << json_escape(name) << "\":" << c->value();
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : s.gauges) {
    if (!first) os << ",";
    os << "\"" << json_escape(name) << "\":" << json_number(g->value());
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    const Histogram::Snapshot snap = h->snapshot();
    if (!first) os << ",";
    os << "\"" << json_escape(name) << "\":{\"count\":" << snap.count
       << ",\"sum\":" << json_number(snap.sum)
       << ",\"mean\":" << json_number(snap.mean()) << ",\"bounds\":[";
    for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
      if (i > 0) os << ",";
      os << json_number(snap.bounds[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      if (i > 0) os << ",";
      os << snap.counts[i];
    }
    os << "]}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("MetricsRegistry: cannot write " + path);
  }
  out << to_json() << "\n";
  if (!out.good()) {
    throw std::runtime_error("MetricsRegistry: short write to " + path);
  }
}

void MetricsRegistry::reset_for_testing() {
  State& s = state();
  util::MutexLock lock(s.mu);
  for (auto& [name, c] : s.counters) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, g] : s.gauges) {
    g->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : s.histograms) {
    for (auto& bucket : h->counts_) {
      bucket.store(0, std::memory_order_relaxed);
    }
    h->count_.store(0, std::memory_order_relaxed);
    h->sum_.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace taglets::obs
