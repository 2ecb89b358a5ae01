// Self time and coverage of drained trace spans.
#include <algorithm>
#include <unordered_map>
#include <utility>

#include "bench.h"

namespace perfbench {
namespace {

using Interval = std::pair<uint64_t, uint64_t>;

// Length of the union of `intervals`, each clipped to [lo, hi).
double UnionWithin(std::vector<Interval> intervals, uint64_t lo, uint64_t hi) {
  for (Interval& i : intervals) {
    i.first = std::clamp(i.first, lo, hi);
    i.second = std::clamp(i.second, lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  uint64_t reach = lo;
  for (const Interval& i : intervals) {
    const uint64_t from = std::max(i.first, reach);
    if (i.second > from) {
      covered += static_cast<double>(i.second - from);
      reach = i.second;
    }
  }
  return covered;
}

Interval Span(const support::TraceEvent& e) { return {e.start_us, e.start_us + e.dur_us}; }

std::unordered_map<uint64_t, std::vector<size_t>> ChildrenOf(
    const std::vector<support::TraceEvent>& events) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].parent_span_id != 0) {
      children[events[i].parent_span_id].push_back(i);
    }
  }
  return children;
}

}  // namespace

SpanTotals SummarizeSpans(const std::vector<support::TraceEvent>& events) {
  const auto children = ChildrenOf(events);
  SpanTotals totals;
  for (const support::TraceEvent& e : events) {
    std::vector<Interval> kids;
    if (auto it = children.find(e.span_id); it != children.end()) {
      for (size_t k : it->second) {
        kids.push_back(Span(events[k]));
      }
    }
    const Interval own = Span(e);
    totals.total_us[e.name] += static_cast<double>(e.dur_us);
    totals.self_us[e.name] +=
        static_cast<double>(e.dur_us) - UnionWithin(std::move(kids), own.first, own.second);
    ++totals.count[e.name];
  }
  return totals;
}

double ForeignCoveredUs(const std::vector<support::TraceEvent>& events,
                        const support::TraceEvent& root,
                        const std::vector<std::string>& own_prefixes) {
  const auto children = ChildrenOf(events);
  auto own = [&own_prefixes](const std::string& name) {
    for (const std::string& prefix : own_prefixes) {
      if (name.rfind(prefix, 0) == 0) {
        return true;
      }
    }
    return false;
  };
  std::vector<Interval> foreign;
  std::vector<uint64_t> frontier{root.span_id};
  while (!frontier.empty()) {
    const uint64_t id = frontier.back();
    frontier.pop_back();
    const auto it = children.find(id);
    if (it == children.end()) {
      continue;
    }
    for (size_t k : it->second) {
      if (own(events[k].name)) {
        frontier.push_back(events[k].span_id);
      } else {
        // A foreign span covers its whole subtree.
        foreign.push_back(Span(events[k]));
      }
    }
  }
  const Interval r = Span(root);
  return UnionWithin(std::move(foreign), r.first, r.second);
}

}  // namespace perfbench
