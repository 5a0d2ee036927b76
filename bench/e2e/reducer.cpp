// Trace reducer: count, inclusive and self time per span name.
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>

#include "obs/trace.hpp"

namespace taglets::bench {

namespace {

/// Timestamps are microseconds in doubles; a child that ends within
/// this much of its parent's end still counts as inside it.
constexpr double kEpsUs = 1e-3;

}  // namespace

std::map<std::string, SpanStats> reduce_spans(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.lane != b.lane) return a.lane < b.lane;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
    return a.depth < b.depth;
  });
  std::map<std::string, SpanStats> stats;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    const double end = parent.ts_us + parent.dur_us;
    // Spans are sorted by start, so the union of the children's
    // intervals is swept with one cursor.
    double covered = 0.0;
    double cursor = parent.ts_us;
    for (std::size_t j = i + 1; j < spans.size() && spans[j].lane == parent.lane &&
                                spans[j].ts_us < end;
         ++j) {
      const Span& child = spans[j];
      const double child_end = child.ts_us + child.dur_us;
      if (child.depth <= parent.depth || child_end > end + kEpsUs) continue;
      const double from = std::max(child.ts_us, cursor);
      const double to = std::min(child_end, end);
      if (to > from) covered += to - from;
      cursor = std::max(cursor, to);
    }
    SpanStats& s = stats[parent.name];
    ++s.count;
    s.incl_us += parent.dur_us;
    s.self_us += std::max(0.0, parent.dur_us - covered);
  }
  return stats;
}

std::vector<Span> tracer_spans(double from_us, double to_us) {
  std::vector<Span> spans;
  for (obs::TraceEvent& e : obs::Tracer::global().snapshot()) {
    if (e.ts_us < from_us || e.ts_us > to_us) continue;
    spans.push_back({std::move(e.name), e.tid, e.ts_us, e.dur_us, e.depth});
  }
  return spans;
}

bool reducer_self_test() {
  // Lane 1 nests A > {B > C, D}; E starts inside A but ends after it,
  // so it is not A's child. F on lane 2 overlaps A but is another
  // thread's work. G's two children overlap each other, as retroactive
  // cross-thread spans can, and must be counted once. S is a retroactive
  // span recorded at R's depth inside R's interval: not R's child.
  const std::vector<Span> spans = {
      {"A", 1, 0, 100, 0},   {"B", 1, 10, 20, 1},  {"C", 1, 20, 5, 2},
      {"D", 1, 50, 10, 1},   {"E", 1, 95, 25, 1},  {"F", 2, 0, 50, 1},
      {"G", 1, 200, 100, 0}, {"H", 1, 210, 40, 1}, {"H", 1, 240, 20, 1},
      {"R", 1, 400, 100, 0}, {"S", 1, 420, 10, 0},
  };
  struct Want {
    const char* name;
    std::uint64_t count;
    double incl;
    double self;
  };
  const Want wants[] = {
      {"A", 1, 100, 70}, {"B", 1, 20, 15}, {"C", 1, 5, 5},
      {"D", 1, 10, 10},  {"E", 1, 25, 25}, {"F", 1, 50, 50},
      {"G", 1, 100, 50}, {"H", 2, 60, 60}, {"R", 1, 100, 100},
      {"S", 1, 10, 10},
  };
  const auto stats = reduce_spans(spans);
  bool ok = stats.size() == std::size(wants);
  for (const Want& want : wants) {
    const auto it = stats.find(want.name);
    const bool match = it != stats.end() && it->second.count == want.count &&
                       std::abs(it->second.incl_us - want.incl) < 1e-9 &&
                       std::abs(it->second.self_us - want.self) < 1e-9;
    if (!match) {
      std::cerr << "reducer self-test: span " << want.name << " expected count "
                << want.count << " incl " << want.incl << " self " << want.self
                << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace taglets::bench
