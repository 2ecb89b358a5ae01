// Microbenchmark: capture and id-lookup costs before/after the VisibleIndex
// (the rip-pipeline hot path), plus end-to-end rip wall-clock cached vs
// uncached and serial vs pooled multi-context ripping.
//
// "legacy" = the pre-index code path: a full accessibility-tree walk with
// per-element ancestor-path re-synthesis for every capture, and a full walk
// for every FindVisibleById. "indexed" = the generation-stamped VisibleIndex
// (cold = first access after invalidation, warm = unchanged generation).
//
// Fuzzy locate: the visit executor's cost per exact-id miss, legacy
// top-window walk (tests/locate_oracle.h: per-element offscreen check, id and
// ancestor-path re-synthesis) vs VisitExecutor::LocateControl scoring the
// VisibleIndex's top-window slice. Probes are the modeled DAG nodes whose
// exact probe misses on a Harsh-decorated UI (the real miss workload); every
// probe must locate to the same control on both paths.
//
// Gates: warm indexed lookup must be at least 5x faster than a legacy find,
// and fuzzy locate must agree with the legacy walk on every probe — the bench
// prints PASS/FAIL and exits nonzero on FAIL so the harness can catch
// regressions (tools/check_bench_regression.py floors the speedups). Results
// land in BENCH_perf.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/agent/task_runner.h"
#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/compiled_model.h"
#include "src/dmi/visit.h"
#include "src/gui/instability.h"
#include "src/ripper/identifier.h"
#include "src/ripper/ripper.h"
#include "src/ripper/visible_index.h"
#include "src/support/thread_pool.h"
#include "src/uia/tree.h"
#include "tests/locate_oracle.h"

namespace {

std::unique_ptr<gsim::Application> MakeApp(const std::string& name) {
  if (name == "WordSim") {
    return std::make_unique<apps::WordSim>();
  }
  if (name == "ExcelSim") {
    return std::make_unique<apps::ExcelSim>();
  }
  return std::make_unique<apps::PpointSim>();
}

// The pre-index CaptureVisible: full walk, per-element id synthesis.
std::vector<ripper::VisibleEntry> LegacyCapture(gsim::Application& app) {
  std::vector<ripper::VisibleEntry> out;
  uia::Walk(app.AccessibilityRoot(), [&](uia::Element& e, int) {
    if (e.IsOffscreen()) {
      return false;
    }
    if (e.RuntimeId() == 0) {
      return true;
    }
    out.push_back(
        ripper::VisibleEntry{ripper::SynthesizeControlId(e), static_cast<gsim::Control*>(&e)});
    return true;
  });
  return out;
}

// The pre-index FindVisibleById: full walk until the id matches.
gsim::Control* LegacyFind(gsim::Application& app, const std::string& control_id) {
  gsim::Control* found = nullptr;
  uia::Walk(app.AccessibilityRoot(), [&](uia::Element& e, int) {
    if (found != nullptr || e.IsOffscreen()) {
      return false;
    }
    if (e.RuntimeId() != 0 && ripper::SynthesizeControlId(e) == control_id) {
      found = static_cast<gsim::Control*>(&e);
      return false;
    }
    return true;
  });
  return found;
}

struct AppPerf {
  std::string app;
  size_t visible = 0;
  double legacy_capture_ms = 0;
  double cold_capture_ms = 0;
  double warm_capture_ms = 0;
  double legacy_find_ms = 0;
  double warm_find_ms = 0;
  double find_speedup = 0;
  bool entries_match = false;
};

AppPerf BenchApp(const std::string& name) {
  AppPerf perf;
  perf.app = name;
  std::unique_ptr<gsim::Application> app = MakeApp(name);
  ripper::VisibleIndex index(*app);

  // Correctness first: the indexed capture must reproduce the legacy capture
  // entry-for-entry (same order, same id strings).
  std::vector<ripper::VisibleEntry> legacy = LegacyCapture(*app);
  const std::vector<ripper::VisibleEntry>& indexed = index.Visible();
  perf.visible = legacy.size();
  perf.entries_match = legacy.size() == indexed.size();
  for (size_t i = 0; perf.entries_match && i < legacy.size(); ++i) {
    perf.entries_match =
        legacy[i].control_id == indexed[i].control_id && legacy[i].control == indexed[i].control;
  }
  // Worst-case legacy lookup: the last element in pre-order.
  const std::string target = legacy.back().control_id;

  constexpr int kSlowIters = 40;    // full-walk operations
  constexpr int kFastIters = 4000;  // hash-probe operations

  {
    bench::WallTimer t;
    for (int i = 0; i < kSlowIters; ++i) {
      std::vector<ripper::VisibleEntry> captured = LegacyCapture(*app);
      if (captured.size() != perf.visible) {
        std::abort();
      }
    }
    perf.legacy_capture_ms = t.ElapsedMs() / kSlowIters;
  }
  {
    bench::WallTimer t;
    for (int i = 0; i < kSlowIters; ++i) {
      index.Invalidate();  // force a rebuild without mutating app state
      (void)index.Visible();
    }
    perf.cold_capture_ms = t.ElapsedMs() / kSlowIters;
  }
  {
    bench::WallTimer t;
    for (int i = 0; i < kFastIters; ++i) {
      (void)index.Visible();
    }
    perf.warm_capture_ms = t.ElapsedMs() / kFastIters;
  }
  {
    bench::WallTimer t;
    for (int i = 0; i < kSlowIters; ++i) {
      if (LegacyFind(*app, target) == nullptr) {
        std::abort();
      }
    }
    perf.legacy_find_ms = t.ElapsedMs() / kSlowIters;
  }
  {
    bench::WallTimer t;
    for (int i = 0; i < kFastIters; ++i) {
      if (index.FindById(target) == nullptr) {
        std::abort();
      }
    }
    perf.warm_find_ms = t.ElapsedMs() / kFastIters;
  }
  perf.find_speedup = perf.warm_find_ms > 0 ? perf.legacy_find_ms / perf.warm_find_ms : 1e9;
  return perf;
}

struct LocatePerf {
  std::string app;
  size_t probes = 0;  // DAG nodes whose exact probe misses
  size_t located = 0;  // misses the fuzzy fallback resolves to a control
  size_t mismatches = 0;
  double legacy_us = 0;   // per miss
  double indexed_us = 0;  // per miss
  double speedup = 0;
};

workload::AppKind KindOf(const std::string& name) {
  if (name == "WordSim") {
    return workload::AppKind::kWord;
  }
  if (name == "ExcelSim") {
    return workload::AppKind::kExcel;
  }
  return workload::AppKind::kPpoint;
}

LocatePerf BenchLocate(const std::string& name) {
  LocatePerf perf;
  perf.app = name;
  // The modeled DAG supplies the probes (and the executor's catalog); a
  // moderate rip depth keeps the model build quick.
  dmi::ModelingOptions options = agentsim::TaskRunner::DefaultModelingOptions(KindOf(name));
  options.ripper_config.max_depth = 4;
  std::shared_ptr<const dmi::CompiledModel> model;
  {
    std::unique_ptr<gsim::Application> scratch = MakeApp(name);
    ripper::GuiRipper rip(*scratch, options.ripper_config);
    model = dmi::CompiledModel::Compile(rip.Rip(options.contexts).Canonicalized(), options);
  }

  gsim::InstabilityInjector injector(gsim::InstabilityConfig::Harsh(), 1);  // outlives app
  std::unique_ptr<gsim::Application> app = MakeApp(name);
  app->SetInstability(&injector);
  const dmi::VisitConfig config;
  dmi::VisitExecutor executor(*app, model->catalog(), config);
  ripper::VisibleIndex index(*app);
  std::vector<const topo::NodeInfo*> misses;
  const topo::NavGraph& dag = model->catalog().dag();
  for (int i = 0; i < static_cast<int>(dag.node_count()); ++i) {
    const topo::NodeInfo& info = dag.node(i);
    if (index.FindByIdInWindow(info.control_id, app->TopWindow()) == nullptr) {
      misses.push_back(&info);
    }
  }
  perf.probes = misses.size();
  for (const topo::NodeInfo* info : misses) {
    gsim::Control* want = locate_oracle::Locate(*app, *info, config.fuzzy_threshold);
    perf.located += want != nullptr ? 1 : 0;
    perf.mismatches += executor.LocateControl(*info) != want ? 1 : 0;
  }

  constexpr int kRounds = 3;
  const double calls = static_cast<double>(kRounds) * static_cast<double>(misses.size());
  size_t found = 0;
  {
    bench::WallTimer t;
    for (int r = 0; r < kRounds; ++r) {
      for (const topo::NodeInfo* info : misses) {
        found += locate_oracle::Locate(*app, *info, config.fuzzy_threshold) != nullptr;
      }
    }
    perf.legacy_us = t.ElapsedMs() * 1000.0 / calls;
  }
  {
    bench::WallTimer t;
    for (int r = 0; r < kRounds; ++r) {
      for (const topo::NodeInfo* info : misses) {
        found += executor.LocateControl(*info) != nullptr;
      }
    }
    perf.indexed_us = t.ElapsedMs() * 1000.0 / calls;
  }
  if (found != 2 * kRounds * perf.located) {
    std::abort();  // the timed loops must see the same verdicts as the check
  }
  perf.speedup = perf.indexed_us > 0 ? perf.legacy_us / perf.indexed_us : 1e9;
  return perf;
}

struct RipPerf {
  std::string app;
  double uncached_ms = 0;
  double cached_ms = 0;
  double hit_rate = 0;
  size_t nodes = 0;
  bool identical = false;
};

RipPerf BenchRip(const std::string& name) {
  RipPerf perf;
  perf.app = name;
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  // Keep the end-to-end comparison quick: the full-depth rips run in the
  // test suite; wall-clock ratios are stable at moderate depth.
  config.max_depth = name == "WordSim" ? 4 : 6;

  topo::NavGraph cached_graph;
  topo::NavGraph uncached_graph;
  {
    config.use_visible_index = false;
    std::unique_ptr<gsim::Application> app = MakeApp(name);
    ripper::GuiRipper ripper(*app, config);
    bench::WallTimer t;
    uncached_graph = ripper.Rip();
    perf.uncached_ms = t.ElapsedMs();
  }
  {
    config.use_visible_index = true;
    std::unique_ptr<gsim::Application> app = MakeApp(name);
    ripper::GuiRipper ripper(*app, config);
    bench::WallTimer t;
    cached_graph = ripper.Rip();
    perf.cached_ms = t.ElapsedMs();
    perf.hit_rate = ripper.stats().CaptureHitRate();
  }
  perf.nodes = cached_graph.node_count();
  perf.identical = cached_graph.ToJson().Dump() == uncached_graph.ToJson().Dump();
  return perf;
}

}  // namespace

int main() {
  bench::PrintHeader("Micro-bench: capture, lookup & fuzzy locate, legacy walk vs VisibleIndex");
  bench::PerfRecorder recorder;

  const char* kApps[] = {"WordSim", "ExcelSim", "PpointSim"};

  std::printf("  %-10s %8s | %12s %12s %12s | %12s %12s %9s\n", "app", "visible",
              "legacy-cap", "cold-cap", "warm-cap", "legacy-find", "warm-find", "speedup");
  std::printf("  %-10s %8s | %12s %12s %12s | %12s %12s %9s\n", "", "", "(ms)", "(ms)",
              "(ms)", "(ms)", "(ms)", "(x)");
  bench::PrintRule();

  bool gate_ok = true;
  bool match_ok = true;
  jsonv::Array micro_rows;
  for (const char* name : kApps) {
    AppPerf p = BenchApp(name);
    gate_ok = gate_ok && p.find_speedup >= 5.0;
    match_ok = match_ok && p.entries_match;
    std::printf("  %-10s %8zu | %12.4f %12.4f %12.4f | %12.4f %12.5f %9.0f\n",
                p.app.c_str(), p.visible, p.legacy_capture_ms, p.cold_capture_ms,
                p.warm_capture_ms, p.legacy_find_ms, p.warm_find_ms, p.find_speedup);
    jsonv::Object row;
    row["app"] = p.app;
    row["visible"] = jsonv::Value(static_cast<int64_t>(p.visible));
    row["legacy_capture_ms"] = jsonv::Value(p.legacy_capture_ms);
    row["cold_capture_ms"] = jsonv::Value(p.cold_capture_ms);
    row["warm_capture_ms"] = jsonv::Value(p.warm_capture_ms);
    row["legacy_find_ms"] = jsonv::Value(p.legacy_find_ms);
    row["warm_find_ms"] = jsonv::Value(p.warm_find_ms);
    row["warm_find_speedup"] = jsonv::Value(p.find_speedup);
    row["entries_match"] = jsonv::Value(p.entries_match);
    micro_rows.push_back(jsonv::Value(std::move(row)));
  }

  std::printf("\nFuzzy locate per exact-id miss, legacy top-window walk vs index slice:\n");
  std::printf("  %-10s %8s %8s | %12s %12s %9s %10s\n", "app", "misses", "located",
              "legacy(us)", "indexed(us)", "speedup", "mismatch");
  bench::PrintRule();
  bool locate_ok = true;
  jsonv::Array locate_rows;
  for (const char* name : kApps) {
    LocatePerf p = BenchLocate(name);
    locate_ok = locate_ok && p.mismatches == 0 && p.probes > 0;
    std::printf("  %-10s %8zu %8zu | %12.2f %12.2f %8.2fx %10zu\n", p.app.c_str(), p.probes,
                p.located, p.legacy_us, p.indexed_us, p.speedup, p.mismatches);
    jsonv::Object row;
    row["app"] = p.app;
    row["misses"] = jsonv::Value(static_cast<int64_t>(p.probes));
    row["located"] = jsonv::Value(static_cast<int64_t>(p.located));
    row["mismatches"] = jsonv::Value(static_cast<int64_t>(p.mismatches));
    row["legacy_locate_us"] = jsonv::Value(p.legacy_us);
    row["indexed_locate_us"] = jsonv::Value(p.indexed_us);
    row["fuzzy_locate_speedup"] = jsonv::Value(p.speedup);
    locate_rows.push_back(jsonv::Value(std::move(row)));
  }

  std::printf("\nEnd-to-end rip, uncached vs cached (same graph required):\n");
  std::printf("  %-10s %8s | %12s %12s %8s %9s %10s\n", "app", "nodes", "uncached(ms)",
              "cached(ms)", "speedup", "hit-rate", "identical");
  bench::PrintRule();
  jsonv::Array rip_rows;
  bool rip_ok = true;
  for (const char* name : kApps) {
    RipPerf p = BenchRip(name);
    rip_ok = rip_ok && p.identical;
    std::printf("  %-10s %8zu | %12.1f %12.1f %7.2fx %8.1f%% %10s\n", p.app.c_str(),
                p.nodes, p.uncached_ms, p.cached_ms,
                p.cached_ms > 0 ? p.uncached_ms / p.cached_ms : 0.0, 100.0 * p.hit_rate,
                p.identical ? "yes" : "NO");
    jsonv::Object row;
    row["app"] = p.app;
    row["nodes"] = jsonv::Value(static_cast<int64_t>(p.nodes));
    row["uncached_ms"] = jsonv::Value(p.uncached_ms);
    row["cached_ms"] = jsonv::Value(p.cached_ms);
    row["capture_hit_rate"] = jsonv::Value(p.hit_rate);
    row["identical_graph"] = jsonv::Value(p.identical);
    rip_rows.push_back(jsonv::Value(std::move(row)));
  }

  jsonv::Object section;
  section["lookup"] = jsonv::Value(std::move(micro_rows));
  section["fuzzy_locate"] = jsonv::Value(std::move(locate_rows));
  section["rip_end_to_end"] = jsonv::Value(std::move(rip_rows));
  section["warm_find_speedup_gate"] = jsonv::Value(5.0);
  section["gate_passed"] = jsonv::Value(gate_ok && match_ok && locate_ok && rip_ok);
  recorder.Set("micro_capture", jsonv::Value(std::move(section)));
  recorder.SetMetricsSnapshot();
  recorder.Write();

  std::printf("\ncapture equivalence: %s\n", match_ok ? "PASS" : "FAIL");
  std::printf("fuzzy locate == legacy walk: %s\n", locate_ok ? "PASS" : "FAIL");
  std::printf("cached == uncached graphs: %s\n", rip_ok ? "PASS" : "FAIL");
  std::printf(">=5x warm FindVisibleById gate: %s\n", gate_ok ? "PASS" : "FAIL");
  return (gate_ok && match_ok && locate_ok && rip_ok) ? 0 : 1;
}
