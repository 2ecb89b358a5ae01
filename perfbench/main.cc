// dmi_perfbench: the DMI serving benchmark.
//
//   dmi_perfbench --workload <dmi_open|gui_closed|swap_under_load>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// One run: set the daemon up several times (setup_s is the median), serve
// one timed window with tracing off, check a sample of served
// sessions against direct TaskRunner::RunOnce calls, and print the
// end-to-end metrics. With --trace 1 it then serves a traced window and
// replays a fixed session sample through each layer's public calls, and
// prints the per-layer metrics instead. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Lines before it
// start with '#' and give the human-readable report. The exit code is
// non-zero on any served-vs-direct or replay mismatch.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "dmi_perfbench: %s\nusage: dmi_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      flags.workload = value;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(flags.seconds > 0.0) || flags.seconds > 600.0) {
        Usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1");
      }
      flags.trace = value == "1" ? 1 : 0;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (flags.workload.empty() || !have_seed || flags.seconds <= 0.0 || flags.trace < 0) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return flags;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Counts the program records, by whether one seed fixes them. Batch
// composition, pool traffic and anything timed depend on thread timing.
bool SeedDeterministic(const std::string& counter) {
  for (const char* prefix : {"batch.", "app_pool.", "pool.", "session.", "registry.", "model."}) {
    if (counter.rfind(prefix, 0) == 0) {
      return false;
    }
  }
  return true;
}

void Put(MetricMap& m, const std::string& name, double value, const std::string& unit) {
  m[name] = Metric{value, unit};
}

// The paper's task metrics over the fixed session prefix (Table 3
// conventions: Steps, Time and tokens averaged over successful runs).
void PaperMetrics(const WindowResult& w, MetricMap& m) {
  agentsim::SuiteResult suite;
  suite.records.push_back(agentsim::TaskRecord{"prefix", w.paper});
  Put(m, "task_sr", suite.SuccessRate(), "ratio");
  Put(m, "llm_calls_per_success", suite.AvgStepsSuccessful(), "calls");
  Put(m, "one_call_share", suite.OneShotShare(1), "ratio");
  Put(m, "sim_s_per_success", suite.AvgTimeSuccessful(), "s");
  Put(m, "tokens_per_success", suite.AvgTotalTokensSuccessful(), "tokens");
}

// The window's rounds reduced to one figure. Other tenants of the machine
// only ever slow a round down, so a timing takes its best round (the lowest
// latency or CPU cost, the highest throughput): that round estimates the
// program's own cost. max_sps takes the median round, because a ladder step
// can also pass or fail by chance in either direction.
template <typename F>
std::vector<double> PerRound(const WindowResult& w, F f) {
  std::vector<double> values;
  for (const WindowResult::Round& r : w.rounds) {
    values.push_back(f(r));
  }
  return values;
}
template <typename F>
double BestLow(const WindowResult& w, F f) {
  const std::vector<double> v = PerRound(w, f);
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
template <typename F>
double BestHigh(const WindowResult& w, F f) {
  const std::vector<double> v = PerRound(w, f);
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double CpuMsPerSession(const WindowResult& w) {
  return BestLow(w, [](const WindowResult::Round& r) {
    return Ratio(1000.0 * r.cpu_s, static_cast<double>(r.ok));
  });
}

// Refresh wall times come in rounds over the app kinds (word, excel, ppoint,
// word, ...). Each kind's best refresh, averaged over the kinds: the best of
// a kind for the same reason as the best round, the average because the
// kinds differ in cost.
double RefreshMs(const std::vector<double>& ms) {
  constexpr size_t kKindCount = 3;
  double sum = 0.0;
  size_t kinds = 0;
  for (size_t k = 0; k < kKindCount && k < ms.size(); ++k) {
    double best = ms[k];
    for (size_t i = k; i < ms.size(); i += kKindCount) {
      best = std::min(best, ms[i]);
    }
    sum += best;
    ++kinds;
  }
  return kinds == 0 ? 0.0 : sum / static_cast<double>(kinds);
}

MetricMap EndToEnd(const Deployment& d, const WindowResult& w) {
  using Round = WindowResult::Round;
  MetricMap m;
  Put(m, "setup_s", Median(d.setup_s), "s");
  Put(m, "throughput_sps",
      BestHigh(w, [](const Round& r) { return Ratio(static_cast<double>(r.ok), r.wall_s); }),
      "1/s");
  Put(m, "max_sps", Median(PerRound(w, [](const Round& r) { return r.max_sps; })), "1/s");
  Put(m, "p50_ms", BestLow(w, [](const Round& r) { return r.p50_ms; }), "ms");
  Put(m, "p99_ms", BestLow(w, [](const Round& r) { return r.p99_ms; }), "ms");
  Put(m, "cpu_ms_per_session", CpuMsPerSession(w), "ms");
  Put(m, "peak_rss_mb", PeakRssMb(), "MB");
  Put(m, "ok_rate", Ratio(static_cast<double>(w.ok), static_cast<double>(w.submitted)),
      "ratio");
  PaperMetrics(w, m);
  return m;
}

MetricMap PerLayer(const WindowResult& untraced, const WindowResult& traced,
                   const std::vector<support::TraceEvent>& events,
                   const support::MetricsSnapshot& before, const support::MetricsSnapshot& after,
                   const ReplayResult& replay) {
  MetricMap m;
  const double served = static_cast<double>(traced.ok);
  const SpanTotals spans = SummarizeSpans(events);
  auto span_self = [&](const char* name) {
    const auto it = spans.self_us.find(name);
    return it == spans.self_us.end() ? 0.0 : it->second;
  };
  auto span_mean_ms = [&](const char* name) {
    const auto it = spans.count.find(name);
    return it == spans.count.end() ? 0.0 : spans.total_us.at(name) / 1000.0 / it->second;
  };
  auto counted = [&](const char* name) {
    const auto it = replay.counters.find(name);
    return it == replay.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double sessions = static_cast<double>(replay.sessions);
  auto per_session = [&](double v) { return Ratio(v, sessions); };
  const std::map<std::string, uint64_t> window_counts = CounterDelta(before, after);
  auto window_per_k = [&](const char* name) {
    const auto it = window_counts.find(name);
    return it == window_counts.end()
               ? 0.0
               : 1000.0 * Ratio(static_cast<double>(it->second), served);
  };
  auto call_mean = [&](const char* layer) {
    const auto it = replay.call_us.find(layer);
    return it == replay.call_us.end() ? 0.0 : Mean(it->second);
  };

  // serve
  Put(m, "serve.queue_ms.p99", Percentile(untraced.queue_ms, 0.99), "ms");
  Put(m, "serve.decode_us", Mean(traced.decode_us), "us");
  Put(m, "serve.encode_us", Mean(traced.encode_us), "us");
  Put(m, "serve.response_bytes", Mean(traced.response_bytes), "bytes");
  // dmi
  Put(m, "dmi.acquire_us", call_mean("dmi.acquire"), "us");
  Put(m, "dmi.attach_us", call_mean("dmi.attach"), "us");
  Put(m, "dmi.visit_us", Ratio(span_self("visit.execute"), served), "us");
  Put(m, "dmi.navigate_us", Ratio(span_self("visit.navigate"), served), "us");
  Put(m, "dmi.visits_per_session", per_session(counted("visit.calls")), "1/session");
  const double fast = counted("visit.locate_fast_path");
  const double walks = counted("visit.locate_fallback_walks");
  Put(m, "dmi.locate_fast_path_rate", Ratio(fast, fast + walks), "ratio");
  Put(m, "dmi.locate_fallback_walks", per_session(walks), "1/session");
  Put(m, "dmi.retries_per_session",
      per_session(counted("visit.locate_retries") + counted("robust.click_retries") +
                  counted("robust.interaction_retries")),
      "1/session");
  const double cache_hits = counted("describe.prompt_cache_hits");
  Put(m, "dmi.prompt_cache_hit_rate",
      Ratio(cache_hits, cache_hits + counted("describe.prompt_cache_misses")), "ratio");
  Put(m, "dmi.compile_ms", replay.compile_ms, "ms");
  Put(m, "dmi.artifact_load_ms", replay.artifact_load_ms, "ms");
  Put(m, "dmi.recompile_ms", span_mean_ms("model.recompile_delta"), "ms");
  Put(m, "dmi.artifact_save_ms", span_mean_ms("model.artifact_save"), "ms");
  // workload
  Put(m, "workload.lease_us", call_mean("workload.lease"), "us");
  Put(m, "workload.reset_us", call_mean("workload.reset"), "us");
  Put(m, "workload.verify_us", call_mean("workload.verify"), "us");
  Put(m, "workload.pool_creates", window_per_k("app_pool.creates"), "1/ksession");
  Put(m, "workload.pool_swap_discards", window_per_k("app_pool.swap_discards"), "1/ksession");
  // agent
  Put(m, "agent.run_self_us", replay.agent_self_us, "us");
  Put(m, "agent.llm_calls", replay.llm_calls, "1/session");
  Put(m, "text.prompt_tokens", replay.prompt_tokens, "1/session");
  const HistDelta batch = HistogramDelta(before, after, "batch.size");
  Put(m, "agent.batch_size.mean", Ratio(batch.sum, static_cast<double>(batch.count)), "calls");
  // ripper
  Put(m, "ripper.rip_ms", replay.rip_ms, "ms");
  double delta_rip_us = 0.0;
  int refreshes = 0;
  for (const support::TraceEvent& e : events) {
    if (e.name == "model.refresh") {
      // The refresh minus recompile, save and load: the delta rip.
      delta_rip_us += static_cast<double>(e.dur_us) -
                      ForeignCoveredUs(events, e, {"model.refresh", "registry.", "rip."});
      ++refreshes;
    }
  }
  Put(m, "ripper.delta_rip_ms", refreshes > 0 ? delta_rip_us / 1000.0 / refreshes : 0.0, "ms");
  const double rebuilds = counted("visible_index.rebuilds");
  Put(m, "ripper.visible_index_rebuilds", per_session(rebuilds), "1/session");
  const double capture_hits = counted("visible_index.capture_hits");
  Put(m, "ripper.capture_hit_rate", Ratio(capture_hits, capture_hits + rebuilds), "ratio");
  // harness
  Put(m, "session.unattributed_pct", replay.unattributed_pct, "%");
  const double cpu_untraced = CpuMsPerSession(untraced);
  const double cpu_traced = CpuMsPerSession(traced);
  Put(m, "trace.overhead_pct", 100.0 * Ratio(cpu_traced - cpu_untraced, cpu_untraced), "%");
  Put(m, "gen.lag_p99_ms", Percentile(untraced.gen_lag_ms, 0.99), "ms");

  std::printf("# bases: session.unattributed_pct of %.0f us replayed over %zu sessions; "
              "trace.overhead_pct of cpu/session %.4f ms untraced (%llu sessions) vs %.4f ms "
              "traced (%llu sessions)\n",
              replay.session_us_total, replay.sessions, cpu_untraced,
              static_cast<unsigned long long>(untraced.ok), cpu_traced,
              static_cast<unsigned long long>(traced.ok));
  std::printf("# work counters per replayed session (%zu sessions; det = fixed by the seed, "
              "timing = depends on thread timing):\n",
              replay.sessions);
  for (const auto& [name, value] : replay.counters) {
    std::printf("#   %-40s %12.4f  %s\n", name.c_str(),
                per_session(static_cast<double>(value)),
                SeedDeterministic(name) ? "det" : "timing");
  }
  return m;
}

void PrintMetrics(const char* title, const MetricMap& m) {
  std::printf("# %s\n", title);
  for (const auto& [name, metric] : m) {
    std::printf("#   %-30s %16.6f %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed, const MetricMap& m) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 1e300);
    json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  const Workload* workload = FindWorkload(flags.workload);
  if (workload == nullptr) {
    Usage(("unknown workload " + flags.workload).c_str());
  }
  const std::vector<workload::Task> suite = workload::BuildOsworldWSuite();
  const SessionSequence sequence(suite, flags.seed);

  Deployment d;
  d.workload = workload;
  SetUp(d, workload->swaps ? 5 : 3);

  const WindowResult untraced = RunWindow(d, sequence, flags.seconds, /*trace=*/false);
  const std::vector<double> refresh_ms =
      workload->swaps ? untraced.refresh_ms : IdleRefreshes(d, 4);
  int mismatches = CheckServedAgainstDirect(d, sequence, untraced);
  const MetricMap e2e = EndToEnd(d, untraced);
  std::printf("# workload %s seed %llu: %llu sent, %llu ok, %llu refused, %llu failed; "
              "%zu sampled sessions checked against direct runs, %d mismatches\n",
              workload->name.c_str(), static_cast<unsigned long long>(flags.seed),
              static_cast<unsigned long long>(untraced.submitted),
              static_cast<unsigned long long>(untraced.ok),
              static_cast<unsigned long long>(untraced.refused),
              static_cast<unsigned long long>(untraced.failed), untraced.sampled.size(),
              mismatches);
  std::printf("# rounds: %8s %10s %12s %9s %9s %10s\n", "wall_s", "cpu_ms/s", "sessions/s",
              "p50_ms", "p99_ms", "max_sps");
  for (const WindowResult::Round& r : untraced.rounds) {
    std::printf("#         %8.3f %10.4f %12.1f %9.3f %9.3f %10.1f\n", r.wall_s,
                Ratio(1000.0 * r.cpu_s, static_cast<double>(r.ok)),
                Ratio(static_cast<double>(r.ok), r.wall_s), r.p50_ms, r.p99_ms, r.max_sps);
  }
  PrintMetrics("end-to-end (error_rate = 1 - ok_rate)", e2e);
  std::printf("#   %-30s %16.6f ratio\n", "error_rate", 1.0 - e2e.at("ok_rate").value);
  // Not an end-to-end metric of BENCHMARK.json: its only gated home is
  // swap_under_load, and an idle refresh swings more with the machine's
  // speed than any bound allows.
  std::printf("#   %-30s %16.6f ms (reported, not gated)\n", "refresh_ms", RefreshMs(refresh_ms));

  MetricMap result = e2e;
  if (flags.trace == 1) {
    support::TraceRecorder& tracer = support::TraceRecorder::Global();
    tracer.Discard();
    const support::MetricsSnapshot before = support::MetricsRegistry::Global().Snapshot();
    tracer.SetEnabled(true);
    const WindowResult traced = RunWindow(d, sequence, flags.seconds / 3, /*trace=*/true);
    const support::MetricsSnapshot after = support::MetricsRegistry::Global().Snapshot();
    if (!workload->swaps) {
      // Refresh spans for the model-plane layers; their pool traffic stays
      // out of the window's counts.
      (void)IdleRefreshes(d, 1);
    }
    tracer.SetEnabled(false);
    const std::vector<support::TraceEvent> events = tracer.Drain();
    mismatches += CheckServedAgainstDirect(d, sequence, traced);
    const ReplayResult replay = Replay(d, sequence, traced);
    mismatches += replay.mismatches;
    result = PerLayer(untraced, traced, events, before, after, replay);
    PrintMetrics("per-layer", result);
  }

  d.serving.reset();
  d.reference.reset();
  if (!d.model_dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(d.model_dir, ignored);
  }
  if (mismatches > 0) {
    std::printf("# FAILED: %d sessions differ from their direct or replayed run\n", mismatches);
  }
  PrintResult(mismatches == 0, untraced.submitted, untraced.refused + untraced.failed, result);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
