// The DMI serving benchmark: shared types of its three parts.
//
//   load.cc   — set-up, the timed serving windows (open-loop ladder and closed
//               loops) and the served-vs-direct correctness sample.
//   replay.cc — the traced replay of a fixed session sample through the
//               public calls of each layer, with benchmark-side spans.
//   spans.cc  — self time of drained trace spans (duration minus the part of
//               the interval its child spans cover).
//   main.cc   — flags, the run of one workload, and the result line.
//
// The benchmark adds no span or counter to the program: it times its own
// calls into each module and reads the spans and counters the program
// already records.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/agent/run_result.h"
#include "src/agent/task_runner.h"
#include "src/dmi/service_config.h"
#include "src/serve/session_manager.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/workload/app_pool.h"
#include "src/workload/tasks.h"

namespace perfbench {

// Serving threads: SessionManager workers plus one generator thread must not
// exceed the four CPUs the benchmark is sized for.
inline constexpr int kWorkers = 3;
inline constexpr int kTenants = 16;
// Fleet batching is on in every workload (observational; results are
// field-identical with it on or off).
inline constexpr int kBatchSize = 8;
// The first kPaperSessions sessions of the seeded sequence carry the paper's
// task metrics (SR, Steps, Time, tokens, one-call share). A fixed prefix
// keeps those metrics identical across runs with one seed, however many
// sessions the timed window completes: closed loops run until the prefix is
// served, and an open-loop window shorter than the prefix uses the sessions
// its (seeded) schedule sends.
inline constexpr uint64_t kPaperSessions = 40000;
// Every kSampleStride-th session is checked against a direct
// TaskRunner::RunOnce; the first kReplaySessions of that sample are replayed.
inline constexpr uint64_t kSampleStride = 41;
inline constexpr size_t kReplaySessions = 150;

// Rounds per timed window (see WindowResult).
inline constexpr int kRounds = 4;

// Open-loop latency limit on p99 (from the due send time). Fixed once: a
// later change must not move it.
inline constexpr double kLatencyLimitMs = 100.0;
// A ladder step whose generator ran later than this (p99) did not offer its
// rate as scheduled, so it counts as not meeting the limit. A fifth of the
// latency limit: later sends would make the generator, not the service, the
// larger part of the measured latency.
inline constexpr double kGeneratorLagLimitMs = 20.0;

struct Workload {
  std::string name;
  std::string mode;        // ServiceConfig::mode: "dmi" or "gui"
  bool open_loop = false;  // Poisson arrivals at fixed rates vs. clients = workers
  bool swaps = false;      // refresh models under load, starting from a .dmim store
};

const Workload* FindWorkload(const std::string& name);

// One session of the seeded sequence.
struct SessionSpec {
  uint64_t index = 0;
  const workload::Task* task = nullptr;
  std::string tenant;
  uint64_t seed = 0;
};

// The deterministic session sequence of a workload seed: apps rotate
// word/excel/ppoint, tasks within an app and trial seeds come from the seed.
class SessionSequence {
 public:
  SessionSequence(const std::vector<workload::Task>& suite, uint64_t workload_seed);
  SessionSpec At(uint64_t index) const;
  uint64_t seed() const { return workload_seed_; }

 private:
  std::vector<std::vector<const workload::Task*>> by_app_;
  uint64_t workload_seed_;
};

dmi::ServiceConfig ConfigFor(const Workload& workload, const std::string& model_dir);

// Client side of a session: its request as one wire frame.
std::string EncodeRequest(const SessionSpec& spec);
// Daemon side of a request frame: frame decode + request parse.
support::Result<serve::Request> DecodeRequest(const std::string& frame);

// Fields of a RunResult that define its outcome (run_id and the flight
// recorder are identities, not outcomes). Empty when equal.
std::vector<std::string> DiffRunResults(const agentsim::RunResult& a,
                                        const agentsim::RunResult& b);

// The app build a swap installs: the stock app plus a popup under the
// blocklisted "Account" button, which the modeler never opens. The popup
// changes the File partition's checksum (so the swap delta-rips it) but no
// control any suite task uses, and no control the model contains.
workload::AppPool::Factory SwapBuild(workload::AppKind kind, int variant);

// A stock instance of the app kind.
std::unique_ptr<gsim::Application> MakeApp(workload::AppKind kind);

// ----- measurement helpers ----------------------------------------------------

double CpuSeconds();         // user + sys of this process
double PeakRssMb();          // ru_maxrss
double SinceMs(std::chrono::steady_clock::time_point from);  // wall ms since `from`
double Median(std::vector<double> values);
// Nearest-rank percentile (q in [0,1]); +inf entries sort last.
double Percentile(std::vector<double> values, double q);

// Counter deltas between two registry snapshots (unlabeled counters only).
std::map<std::string, uint64_t> CounterDelta(const support::MetricsSnapshot& before,
                                             const support::MetricsSnapshot& after);
struct HistDelta {
  uint64_t count = 0;
  double sum = 0.0;
};
HistDelta HistogramDelta(const support::MetricsSnapshot& before,
                         const support::MetricsSnapshot& after, const std::string& name);

// ----- spans ------------------------------------------------------------------

// Per-name totals over a set of drained spans, in microseconds.
struct SpanTotals {
  std::map<std::string, double> total_us;  // sum of durations
  std::map<std::string, double> self_us;   // sum of self times
  std::map<std::string, uint64_t> count;
};
SpanTotals SummarizeSpans(const std::vector<support::TraceEvent>& events);
// Microseconds of `root`'s interval covered by descendants whose names do not
// start with one of `own_prefixes` (those count as the root's own layer).
double ForeignCoveredUs(const std::vector<support::TraceEvent>& events,
                        const support::TraceEvent& root,
                        const std::vector<std::string>& own_prefixes);

// ----- results ----------------------------------------------------------------

// What a timed window produced.
struct WindowResult {
  // The window is measured in kRounds rounds; end-to-end timings reduce them
  // (main.cc), so a stall of the machine moves some rounds only.
  struct Round {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    uint64_t ok = 0;
    double p50_ms = 0.0;  // open loop: at the reference step
    double p99_ms = 0.0;
    double max_sps = 0.0;  // open loop: served rate at the highest passing step
  };
  std::vector<Round> rounds;
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t refused = 0;
  uint64_t failed = 0;  // non-OK responses (cancelled, errors)
  std::vector<double> queue_ms;    // open loop: reference steps only
  std::vector<double> gen_lag_ms;  // open loop
  std::vector<double> refresh_ms;  // swap_under_load
  // Served results of the sampled sessions (index % kSampleStride == 0) and
  // of the paper prefix (index < kPaperSessions).
  std::map<uint64_t, agentsim::RunResult> sampled;
  std::vector<agentsim::RunResult> paper;  // index order
  // Timings the traced window takes of its own calls.
  std::vector<double> decode_us;
  std::vector<double> encode_us;
  std::vector<double> response_bytes;
};

// The serving substrate of one run: set-up timings, the serving manager, and
// a second manager whose runner answers direct TaskRunner::RunOnce calls.
struct Deployment {
  const Workload* workload = nullptr;
  std::string model_dir;  // .dmim store (swap workload); empty otherwise
  std::vector<double> setup_s;
  std::unique_ptr<serve::SessionManager> reference;
  std::unique_ptr<serve::SessionManager> serving;
  // Swap bookkeeping: refreshes so far per kind; the published version is
  // that count plus one ("1" before any refresh).
  std::map<workload::AppKind, int> swaps_done;
};

// Builds the deployment, timing `setups` constructions of the daemon
// (SessionManager + PrewarmModels). Exits the process on a set-up failure.
void SetUp(Deployment& deployment, int setups);

// Runs one timed window of `seconds` on the serving manager. `trace` also
// times decode/encode calls (the untraced window does not).
WindowResult RunWindow(Deployment& deployment, const SessionSequence& sequence,
                       double seconds, bool trace);

// Refreshes each app kind `rounds` times, outside any load; returns wall ms
// per call, in rounds over the app kinds (word, excel, ppoint, word, ...).
std::vector<double> IdleRefreshes(Deployment& deployment, int rounds);

// Served-vs-direct: every sampled served result must be field-identical to
// a direct RunOnce on the reference runner. Prints each mismatch; returns the
// number of mismatching sessions.
int CheckServedAgainstDirect(Deployment& deployment, const SessionSequence& sequence,
                             const WindowResult& window);

// ----- replay -----------------------------------------------------------------

struct ReplayResult {
  size_t sessions = 0;
  int mismatches = 0;
  // Per-layer timings of the benchmark's own calls, microseconds per session.
  std::map<std::string, std::vector<double>> call_us;
  double rip_ms = 0.0;            // mean per app kind (compile-path workloads)
  double compile_ms = 0.0;        // mean per app kind (compile-path workloads)
  double artifact_load_ms = 0.0;  // mean per app kind (store workloads)
  double unattributed_pct = 0.0;  // session time covered by no program span
  double session_us_total = 0.0;  // its base
  double agent_self_us = 0.0;     // per session
  double llm_calls = 0.0;         // per session
  double prompt_tokens = 0.0;     // per session
  std::map<std::string, uint64_t> counters;  // registry deltas over the replay
};

// Replays the first kReplaySessions sampled sessions serially through the
// public calls of each layer with tracing on, and checks each RunResult
// against the served one.
ReplayResult Replay(Deployment& deployment, const SessionSequence& sequence,
                    const WindowResult& served);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
