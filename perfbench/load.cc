// Set-up, timed serving windows and the served-vs-direct check.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "src/apps/excel_sim.h"
#include "src/apps/office_common.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/serve/report_schema.h"
#include "src/serve/wire.h"
#include "src/support/rng.h"

namespace perfbench {
namespace {

// swap_under_load is not in BENCHMARK.json: every run of it fails the
// served-vs-direct check, because refreshing a cold-loaded PowerPoint model
// yields a different model than compiling it (see layer_map.json).
const Workload kWorkloads[] = {
    {"dmi_open", "dmi", /*open_loop=*/true, /*swaps=*/false},
    {"gui_closed", "gui", false, false},
    {"swap_under_load", "dmi", false, true},
};

// Open-loop ladder, in sessions/s. Three workers serve about 1,350 GUI+DMI
// sessions/s in steady state on the seed code (about 2.2 ms of CPU each under
// the typical policy, generator included), and somewhat more over a step as
// short as a round's. The first step is the reference step whose latency the
// end-to-end p50/p99 report: at about a fifth of capacity, queueing adds
// little, so its latency is mostly service time and does not amplify the
// speed swings of a shared machine. The others straddle capacity in steps of
// about 10%.
const double kLadderSps[] = {300, 1300, 1450, 1600, 1750};
// Share of a round the reference step gets (enough sessions for a p99 with
// ten beyond it); the other steps split the rest evenly.
constexpr double kReferenceShare = 0.5;
// swap_under_load: sessions served between two model refreshes.
constexpr uint64_t kSwapEvery = 500;

const workload::AppKind kKinds[] = {workload::AppKind::kWord, workload::AppKind::kExcel,
                                    workload::AppKind::kPpoint};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// Shared state of one window: what the completion callbacks record, per
// session index and in completion order.
class Recorder {
 public:
  Recorder(WindowResult& out, bool trace) : out_(out), trace_(trace) {}

  // Daemon side of a response: encode it as the daemon's writer would, then
  // record the outcome.
  void Complete(uint64_t index, double latency_ms, serve::Response response) {
    const auto encode_start = std::chrono::steady_clock::now();
    std::string frame;
    serve::AppendFrame(frame, serve::ResponseJson(response).Dump());
    const double encode_us = trace_ ? SinceMs(encode_start) * 1000.0 : 0.0;
    std::lock_guard<std::mutex> lock(mu_);
    if (trace_) {
      out_.encode_us.push_back(encode_us);
      out_.response_bytes.push_back(static_cast<double>(frame.size()));
    }
    Slot& slot = SlotOf(index);
    if (response.status.ok()) {
      ++out_.ok;
      slot.latency_ms = latency_ms;
      slot.queue_ms = response.queue_ms;
      if (index % kSampleStride == 0) {
        out_.sampled[index] = response.result;
      }
    } else {
      ++out_.failed;
    }
    if (index < kPaperSessions) {
      out_.paper[index] = std::move(response.result);
      out_.paper[index].flight.reset();  // the task metrics need only the outcome
    }
    order_.push_back(index);
    cv_.notify_all();
  }

  // A refused paper-prefix session keeps its default (failed) result, and
  // its latency stays +inf.
  void Refused(uint64_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    ++out_.refused;
    SlotOf(index);
    order_.push_back(index);
    cv_.notify_all();
  }

  void Submitted(double decode_us) {
    std::lock_guard<std::mutex> lock(mu_);
    ++out_.submitted;
    if (trace_) {
      out_.decode_us.push_back(decode_us);
    }
  }

  // Sessions completed (or refused) so far.
  uint64_t Done() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_.size();
  }
  void WaitDone(uint64_t count) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return order_.size() >= count; });
  }
  // Blocks until `count` sessions completed or `stop` became true; returns
  // the sessions completed so far.
  uint64_t WaitDoneOr(uint64_t count, const std::atomic<bool>& stop) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return order_.size() >= count || stop.load(); });
    return order_.size();
  }
  // Wakes WaitDoneOr after `stop` changed (the lock orders the change before
  // the waiter's next predicate check).
  void Notify() {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

  // Latencies (+inf for refused or failed) and queue waits of the sessions
  // with index in [begin, end), or of the completions [begin, end) in
  // completion order.
  struct Slice {
    std::vector<double> latency_ms;
    std::vector<double> queue_ms;
    uint64_t ok = 0;
  };
  Slice ByIndex(uint64_t begin, uint64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    Slice s;
    for (uint64_t i = begin; i < end; ++i) {
      Add(s, SlotOf(i));
    }
    return s;
  }
  Slice ByCompletion(uint64_t begin, uint64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    Slice s;
    for (uint64_t c = begin; c < end && c < order_.size(); ++c) {
      Add(s, SlotOf(order_[c]));
    }
    return s;
  }

 private:
  struct Slot {
    double latency_ms = kInf;
    double queue_ms = kInf;
  };
  Slot& SlotOf(uint64_t index) {
    if (index >= slots_.size()) {
      slots_.resize(index + 1);
    }
    return slots_[index];
  }
  static void Add(Slice& s, const Slot& slot) {
    s.latency_ms.push_back(slot.latency_ms);
    if (std::isfinite(slot.latency_ms)) {
      ++s.ok;
      s.queue_ms.push_back(slot.queue_ms);
    }
  }

  WindowResult& out_;
  const bool trace_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> order_;
};

struct StepReport {
  int round = 0;
  double rate = 0.0;
  uint64_t sent = 0, ok = 0, refused = 0, failed = 0;
  double p50 = 0.0, p99 = 0.0, lag_p99 = 0.0, served_sps = 0.0;
  size_t backlog_end = 0;
  bool pass = false;
};

// Daemon side of a request: decode the frame and submit it. `done` receives
// the response; a session that cannot be decoded or admitted is refused.
bool SubmitFrame(serve::SessionManager& manager, Recorder& recorder, uint64_t index,
                 const std::string& frame, serve::SessionManager::Callback done) {
  const auto decode_start = std::chrono::steady_clock::now();
  support::Result<serve::Request> request = DecodeRequest(frame);
  recorder.Submitted(SinceMs(decode_start) * 1000.0);
  const support::Status admitted = request.ok()
                                       ? manager.Submit(std::move(*request), std::move(done))
                                       : request.status();
  if (!admitted.ok()) {
    recorder.Refused(index);
  }
  return admitted.ok();
}

void RunOpenLoop(serve::SessionManager& manager, const SessionSequence& sequence,
                 double seconds, Recorder& recorder, WindowResult& out) {
  const size_t steps = std::size(kLadderSps);
  const double round_s = seconds / kRounds;
  uint64_t next_index = 0;
  std::vector<StepReport> reports;
  for (int r = 0; r < kRounds; ++r) {
    WindowResult::Round round;
    for (size_t k = 0; k < steps; ++k) {
      StepReport step;
      step.round = r;
      step.rate = kLadderSps[k];
      const double step_s = k == 0 ? round_s * kReferenceShare
                                   : round_s * (1.0 - kReferenceShare) /
                                         static_cast<double>(steps - 1);
      // Seeded Poisson schedule; request frames are encoded client-side
      // before the step starts.
      support::Rng rng(SplitMix(sequence.seed() * 131 + static_cast<uint64_t>(r) * 17 + k));
      std::vector<double> due_ms;
      for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.NextDouble()) * 1000.0 / step.rate;
        if (t >= step_s * 1000.0) {
          break;
        }
        due_ms.push_back(t);
      }
      const uint64_t first = next_index;
      std::vector<std::string> frames;
      frames.reserve(due_ms.size());
      for (size_t i = 0; i < due_ms.size(); ++i) {
        frames.push_back(EncodeRequest(sequence.At(next_index++)));
      }
      std::vector<double> lag_ms;
      lag_ms.reserve(due_ms.size());
      const uint64_t refused_before = out.refused;
      const uint64_t failed_before = out.failed;
      const double cpu_start = CpuSeconds();
      const auto start = std::chrono::steady_clock::now();
      for (size_t i = 0; i < due_ms.size(); ++i) {
        const auto due =
            start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(due_ms[i]));
        std::this_thread::sleep_until(due);
        lag_ms.push_back(SinceMs(due));
        const uint64_t index = first + i;
        SubmitFrame(manager, recorder, index, frames[i],
                    [&recorder, index, due](serve::Response response) {
                      const double latency = std::chrono::duration<double, std::milli>(
                                                 std::chrono::steady_clock::now() - due)
                                                 .count();
                      recorder.Complete(index, latency, std::move(response));
                    });
      }
      step.backlog_end = manager.Outstanding();
      recorder.WaitDone(next_index);
      const double step_wall_ms = SinceMs(start);
      const double step_cpu_s = CpuSeconds() - cpu_start;
      const Recorder::Slice slice = recorder.ByIndex(first, next_index);
      step.sent = due_ms.size();
      step.ok = slice.ok;
      step.refused = out.refused - refused_before;
      step.failed = out.failed - failed_before;
      step.p50 = Percentile(slice.latency_ms, 0.50);
      step.p99 = Percentile(slice.latency_ms, 0.99);
      step.lag_p99 = Percentile(lag_ms, 0.99);
      step.served_sps = 1000.0 * static_cast<double>(step.ok) / step_wall_ms;
      // The backlog grows when the workers cannot clear, within the latency
      // limit, what arrived by the end of the step.
      const double backlog_limit = step.rate * kLatencyLimitMs / 1000.0;
      step.pass = step.p99 <= kLatencyLimitMs && step.refused == 0 && step.failed == 0 &&
                  step.lag_p99 <= kGeneratorLagLimitMs &&
                  static_cast<double>(step.backlog_end) <= backlog_limit;
      round.wall_s += step_wall_ms / 1000.0;
      round.cpu_s += step_cpu_s;
      round.ok += step.ok;
      if (k == 0) {
        round.p50_ms = step.p50;
        round.p99_ms = step.p99;
        out.queue_ms.insert(out.queue_ms.end(), slice.queue_ms.begin(), slice.queue_ms.end());
      }
      if (step.pass) {
        round.max_sps = step.served_sps;
      }
      out.gen_lag_ms.insert(out.gen_lag_ms.end(), lag_ms.begin(), lag_ms.end());
      reports.push_back(step);
    }
    out.rounds.push_back(round);
  }
  std::printf("# open-loop ladder (limit p99 <= %.0f ms, generator lag p99 <= %.1f ms)\n",
              kLatencyLimitMs, kGeneratorLagLimitMs);
  std::printf("#   %5s %8s %7s %7s %7s %6s %9s %9s %8s %8s %9s  %s\n", "round", "rate/s", "sent",
              "ok", "refused", "failed", "p50_ms", "p99_ms", "lag_p99", "backlog", "served/s",
              "meets");
  for (const StepReport& s : reports) {
    std::printf("#   %5d %8.0f %7llu %7llu %7llu %6llu %9.3f %9.3f %8.3f %8zu %9.1f  %s\n",
                s.round, s.rate, static_cast<unsigned long long>(s.sent),
                static_cast<unsigned long long>(s.ok), static_cast<unsigned long long>(s.refused),
                static_cast<unsigned long long>(s.failed), s.p50, s.p99, s.lag_p99,
                s.backlog_end, s.served_sps, s.pass ? "yes" : "no");
  }
}

// swap_under_load's generator: every kSwapEvery sessions, refresh the next
// app kind to the other build while the clients keep reading.
void RefreshUnderLoad(Deployment& d, Recorder& recorder, const std::atomic<bool>& stop,
                      WindowResult& out) {
  serve::SessionManager& manager = *d.serving;
  size_t kind_cursor = 0;
  uint64_t next_refresh = kSwapEvery;
  for (;;) {
    recorder.WaitDoneOr(next_refresh, stop);
    if (stop) {
      return;
    }
    const workload::AppKind kind = kKinds[kind_cursor++ % std::size(kKinds)];
    const int n = ++d.swaps_done[kind];
    const std::string version = std::to_string(n + 1);
    const auto refresh_start = std::chrono::steady_clock::now();
    const support::Status refreshed =
        manager.runner().RefreshModel(kind, version, SwapBuild(kind, n % 2));
    const double refresh_ms = SinceMs(refresh_start);
    if (!refreshed.ok()) {
      std::fprintf(stderr, "RefreshModel(%s, %s): %s\n", workload::AppKindName(kind),
                   version.c_str(), refreshed.ToString().c_str());
      std::exit(3);
    }
    out.refresh_ms.push_back(refresh_ms);
    // Superseded versions: drop the memo entries nobody holds and the
    // previous artifact file, so the store stays one file per kind.
    dmi::ModelRegistry* registry = manager.runner().mutable_model_registry();
    (void)registry->Prune(workload::AppKindName(kind));
    std::error_code ignored;
    std::filesystem::remove(
        registry->ArtifactPath(workload::AppKindName(kind), std::to_string(n)), ignored);
    next_refresh = recorder.Done() + kSwapEvery;
  }
}

// Clients = workers: each client submits its next session from the previous
// one's completion callback, so nothing queues. The window is cut into
// kRounds rounds by completion time.
void RunClosedLoop(Deployment& d, const SessionSequence& sequence, double seconds,
                   Recorder& recorder, WindowResult& out) {
  serve::SessionManager& manager = *d.serving;
  const auto start = std::chrono::steady_clock::now();
  std::mutex mu;  // guards next_index and active
  std::condition_variable stopped_cv;
  uint64_t next_index = 0;
  int active = kWorkers;
  std::atomic<bool> stop{false};
  std::function<void()> submit_next = [&]() {
    uint64_t index = 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (SinceMs(start) >= seconds * 1000.0 && next_index >= kPaperSessions) {
        stop = true;
        recorder.Notify();
        // Last touch of shared state: the main thread may return as soon as
        // the lock is released.
        --active;
        stopped_cv.notify_all();
        return;
      }
      index = next_index++;
    }
    const std::string frame = EncodeRequest(sequence.At(index));
    const auto submitted_at = std::chrono::steady_clock::now();
    const bool admitted =
        SubmitFrame(manager, recorder, index, frame,
                    [&, index, submitted_at](serve::Response response) {
                      recorder.Complete(index, SinceMs(submitted_at), std::move(response));
                      submit_next();
                    });
    if (!admitted) {
      submit_next();  // the client moves on to its next session
    }
  };
  std::thread refresher;
  if (d.workload->swaps) {
    refresher = std::thread([&] { RefreshUnderLoad(d, recorder, stop, out); });
  }
  double cpu_mark = CpuSeconds();
  uint64_t done_mark = 0;
  auto time_mark = start;
  for (int c = 0; c < kWorkers; ++c) {
    submit_next();
  }
  for (int r = 1; r <= kRounds; ++r) {
    const auto boundary =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds * r / kRounds));
    std::this_thread::sleep_until(boundary);
    const double cpu_now = CpuSeconds();
    const uint64_t done_now = recorder.Done();
    const auto time_now = std::chrono::steady_clock::now();
    const Recorder::Slice slice = recorder.ByCompletion(done_mark, done_now);
    WindowResult::Round round;
    round.wall_s = std::chrono::duration<double>(time_now - time_mark).count();
    round.cpu_s = cpu_now - cpu_mark;
    round.ok = slice.ok;
    round.p50_ms = Percentile(slice.latency_ms, 0.50);
    round.p99_ms = Percentile(slice.latency_ms, 0.99);
    round.max_sps = static_cast<double>(round.ok) / round.wall_s;
    out.rounds.push_back(round);
    out.queue_ms.insert(out.queue_ms.end(), slice.queue_ms.begin(), slice.queue_ms.end());
    cpu_mark = cpu_now;
    done_mark = done_now;
    time_mark = time_now;
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    stopped_cv.wait(lock, [&] { return active == 0; });
  }
  if (refresher.joinable()) {
    refresher.join();
  }
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

SessionSequence::SessionSequence(const std::vector<workload::Task>& suite,
                                 uint64_t workload_seed)
    : by_app_(std::size(kKinds)), workload_seed_(workload_seed) {
  for (const workload::Task& task : suite) {
    for (size_t k = 0; k < std::size(kKinds); ++k) {
      if (task.app == kKinds[k]) {
        by_app_[k].push_back(&task);
      }
    }
  }
}

SessionSpec SessionSequence::At(uint64_t index) const {
  const uint64_t h = SplitMix(SplitMix(workload_seed_) ^ index);
  const std::vector<const workload::Task*>& tasks = by_app_[index % by_app_.size()];
  SessionSpec spec;
  spec.index = index;
  spec.task = tasks[h % tasks.size()];
  spec.tenant = "tenant" + std::to_string(index % kTenants);
  spec.seed = SplitMix(h) | 1;
  return spec;
}

dmi::ServiceConfig ConfigFor(const Workload& workload, const std::string& model_dir) {
  dmi::ServiceConfig config;
  config.mode = workload.mode;
  config.model = "gpt5";
  config.policy = "typical";
  config.batch_size = kBatchSize;
  config.max_in_flight = kWorkers;
  // Deep enough that overload shows as backlog and latency, not refusals.
  config.queue_capacity = 8192;
  config.model_dir = model_dir;
  return config;
}

std::vector<std::string> DiffRunResults(const agentsim::RunResult& a,
                                        const agentsim::RunResult& b) {
  std::vector<std::string> diff;
  auto check = [&diff](bool same, const char* field) {
    if (!same) {
      diff.emplace_back(field);
    }
  };
  check(a.success == b.success, "success");
  check(a.llm_calls == b.llm_calls, "llm_calls");
  check(a.core_calls == b.core_calls, "core_calls");
  check(a.sim_time_s == b.sim_time_s, "sim_time_s");
  check(a.prompt_tokens == b.prompt_tokens, "prompt_tokens");
  check(a.output_tokens == b.output_tokens, "output_tokens");
  check(a.ui_actions == b.ui_actions, "ui_actions");
  check(a.cause == b.cause, "cause");
  check(a.final_status.code() == b.final_status.code() &&
            a.final_status.message() == b.final_status.message(),
        "final_status");
  check(a.report_json == b.report_json, "report_json");
  return diff;
}

std::unique_ptr<gsim::Application> MakeApp(workload::AppKind kind) {
  switch (kind) {
    case workload::AppKind::kWord:
      return std::make_unique<apps::WordSim>();
    case workload::AppKind::kExcel:
      return std::make_unique<apps::ExcelSim>();
    case workload::AppKind::kPpoint:
      return std::make_unique<apps::PpointSim>();
  }
  return nullptr;
}

support::Result<serve::Request> DecodeRequest(const std::string& frame) {
  size_t offset = 0;
  support::Result<std::optional<std::string>> payload = serve::DecodeFrame(frame, &offset);
  if (!payload.ok()) {
    return payload.status();
  }
  if (!payload->has_value()) {
    return support::InvalidArgumentError("partial request frame");
  }
  return serve::ParseRequest(**payload);
}

std::string EncodeRequest(const SessionSpec& spec) {
  serve::Request request;
  request.request_id = spec.index + 1;
  request.tenant = spec.tenant;
  request.task_id = spec.task->id;
  request.seed = spec.seed;
  std::string frame;
  serve::AppendFrame(frame, serve::RequestJson(request).Dump());
  return frame;
}

workload::AppPool::Factory SwapBuild(workload::AppKind kind, int variant) {
  return [kind, variant]() -> std::unique_ptr<gsim::Application> {
    std::unique_ptr<gsim::Application> app = MakeApp(kind);
    gsim::Control* account = nullptr;
    app->main_window().root().WalkStatic([&](gsim::Control& c) {
      if (account == nullptr && c.TrueName() == "Account") {
        account = &c;
      }
    });
    if (account != nullptr) {
      std::unique_ptr<gsim::Control> menu = apps::MakeMenuRoot("Account Menu");
      menu->NewChild(variant == 0 ? "Switch Profile" : "Sign Out", uia::ControlType::kMenuItem);
      account->SetPopup(std::move(menu));
    }
    return app;
  };
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SinceMs(std::chrono::steady_clock::time_point from) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - from)
      .count();
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::map<std::string, uint64_t> CounterDelta(const support::MetricsSnapshot& before,
                                             const support::MetricsSnapshot& after) {
  std::map<std::string, uint64_t> delta;
  for (const support::CounterSnapshot& c : after.counters) {
    const uint64_t was = before.CounterValue(c.name);
    if (c.value > was) {
      delta[c.name] = c.value - was;
    }
  }
  return delta;
}

HistDelta HistogramDelta(const support::MetricsSnapshot& before,
                         const support::MetricsSnapshot& after, const std::string& name) {
  HistDelta d;
  const support::HistogramSnapshot* a = after.FindHistogram(name);
  if (a == nullptr) {
    return d;
  }
  const support::HistogramSnapshot* b = before.FindHistogram(name);
  d.count = a->count - (b != nullptr ? b->count : 0);
  d.sum = a->sum - (b != nullptr ? b->sum : 0.0);
  return d;
}

void SetUp(Deployment& d, int setups) {
  const auto make = [&d]() {
    const dmi::ServiceConfig config = ConfigFor(*d.workload, d.model_dir);
    const support::Status valid = config.Validate();
    if (!valid.ok()) {
      std::fprintf(stderr, "config: %s\n", valid.ToString().c_str());
      std::exit(3);
    }
    auto manager = std::make_unique<serve::SessionManager>(config);
    manager->PrewarmModels();
    return manager;
  };
  if (d.workload->swaps) {
    // Write the .dmim store before anything is timed: this manager compiles
    // and saves through, and later answers the direct runs.
    d.model_dir = ".bench_build/perfbench-store-" + std::to_string(::getpid());
    std::error_code ignored;
    std::filesystem::remove_all(d.model_dir, ignored);
    std::filesystem::create_directories(d.model_dir);
    d.reference = make();
  }
  for (int i = 0; i < setups; ++i) {
    const auto start = std::chrono::steady_clock::now();
    std::unique_ptr<serve::SessionManager> manager = make();
    d.setup_s.push_back(SinceMs(start) / 1000.0);
    if (d.reference == nullptr) {
      d.reference = std::move(manager);
    } else if (i == setups - 1) {
      d.serving = std::move(manager);
    }
  }
}

WindowResult RunWindow(Deployment& d, const SessionSequence& sequence, double seconds,
                       bool trace) {
  WindowResult out;
  out.paper.resize(kPaperSessions);
  Recorder recorder(out, trace);
  if (d.workload->open_loop) {
    RunOpenLoop(*d.serving, sequence, seconds, recorder, out);
  } else {
    RunClosedLoop(d, sequence, seconds, recorder, out);
  }
  // A short open-loop window may send fewer sessions than the prefix.
  out.paper.resize(std::min<uint64_t>(out.paper.size(), out.submitted));
  return out;
}

std::vector<double> IdleRefreshes(Deployment& d, int rounds) {
  std::vector<double> ms;
  for (int round = 0; round < rounds; ++round) {
    for (workload::AppKind kind : kKinds) {
      const int n = ++d.swaps_done[kind];
      const auto start = std::chrono::steady_clock::now();
      const support::Status refreshed = d.serving->runner().RefreshModel(
          kind, std::to_string(n + 1), SwapBuild(kind, n % 2));
      ms.push_back(SinceMs(start));
      if (!refreshed.ok()) {
        std::fprintf(stderr, "RefreshModel: %s\n", refreshed.ToString().c_str());
        std::exit(3);
      }
    }
  }
  return ms;
}

int CheckServedAgainstDirect(Deployment& d, const SessionSequence& sequence,
                             const WindowResult& window) {
  int mismatches = 0;
  for (const auto& [index, served] : window.sampled) {
    const SessionSpec spec = sequence.At(index);
    const agentsim::RunResult direct =
        d.reference->runner().RunOnce(*spec.task, d.reference->run_config(), spec.seed);
    const std::vector<std::string> diff = DiffRunResults(served, direct);
    if (!diff.empty()) {
      ++mismatches;
      std::string fields;
      for (const std::string& f : diff) {
        fields += (fields.empty() ? "" : ",") + f;
      }
      std::printf("# MISMATCH served vs direct: session %llu task %s seed %llu: %s\n",
                  static_cast<unsigned long long>(index), spec.task->id.c_str(),
                  static_cast<unsigned long long>(spec.seed), fields.c_str());
    }
  }
  return mismatches;
}

}  // namespace perfbench
