// The traced replay: a fixed sample of served sessions, run again serially
// through the public call of each layer, each call inside a benchmark-side
// span that carries the session's run id.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench.h"
#include "src/agent/baseline_agent.h"
#include "src/agent/batch_scheduler.h"
#include "src/agent/dmi_agent.h"
#include "src/agent/sim_llm.h"
#include "src/dmi/model_registry.h"
#include "src/dmi/session.h"
#include "src/ripper/delta.h"
#include "src/ripper/ripper.h"
#include "src/serve/report_schema.h"
#include "src/serve/wire.h"

namespace perfbench {
namespace {

// Times one call into a layer: a benchmark span for attribution, and a
// steady-clock reading (finer than the span clock's microseconds) for the
// per-call figure.
class LayerCall {
 public:
  LayerCall(const char* span_name, std::vector<double>& sink)
      : span_(span_name, "bench"), sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~LayerCall() {
    sink_.push_back(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start_)
                        .count());
  }
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  support::TraceSpan span_;
  std::vector<double>& sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

ReplayResult Replay(Deployment& d, const SessionSequence& sequence,
                    const WindowResult& served) {
  ReplayResult out;
  agentsim::TaskRunner& runner = d.serving->runner();
  const agentsim::RunConfig& config = d.serving->run_config();
  // The replay resolves models through its own registry: the compile-path
  // workloads rip and compile each kind here (timed), the store workload
  // cold-loads the artifacts the serving daemon published last.
  dmi::ModelRegistry registry(d.model_dir);
  agentsim::BatchScheduler batches;
  batches.Configure(config.batch);

  std::vector<uint64_t> sample;
  for (const auto& [index, result] : served.sampled) {
    if (index < kPaperSessions && sample.size() < kReplaySessions) {
      sample.push_back(index);
    }
  }

  std::set<workload::AppKind> resolved;
  auto version_of = [&d](workload::AppKind kind) {
    const auto it = d.swaps_done.find(kind);
    return std::to_string(it != d.swaps_done.end() ? it->second + 1 : 1);
  };
  double rip_ms = 0.0, compile_ms = 0.0, load_ms = 0.0;
  int rips = 0, loads = 0;
  auto acquire = [&](workload::AppKind kind, bool first) {
    const dmi::ModelingOptions options = agentsim::TaskRunner::DefaultModelingOptions(kind);
    const std::string kind_name = workload::AppKindName(kind);
    auto compile = [&]() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
      if (!d.model_dir.empty()) {
        return support::InternalError("replay: artifact missing for " + kind_name);
      }
      std::unique_ptr<gsim::Application> scratch = MakeApp(kind);
      const ripper::ChecksumTable checksums = ripper::ComputeSubtreeChecksums(*scratch);
      ripper::GuiRipper rip(*scratch, options.ripper_config);
      const auto rip_start = std::chrono::steady_clock::now();
      const topo::NavGraph graph = rip.Rip(options.contexts).Canonicalized();
      rip_ms += SinceMs(rip_start);
      const auto compile_start = std::chrono::steady_clock::now();
      auto model = dmi::CompiledModel::Compile(graph, options, &rip.stats(), &checksums);
      compile_ms += SinceMs(compile_start);
      ++rips;
      return model;
    };
    const auto start = std::chrono::steady_clock::now();
    auto model = registry.Acquire(kind_name, version_of(kind), options, compile);
    if (first && !d.model_dir.empty()) {
      load_ms += SinceMs(start);
      ++loads;
    }
    if (!model.ok()) {
      std::fprintf(stderr, "replay: %s\n", model.status().ToString().c_str());
      std::exit(3);
    }
    return *model;
  };
  // Resolve every kind once before tracing: the per-session acquire below is
  // the memo hit a served session pays.
  for (uint64_t index : sample) {
    const workload::AppKind kind = sequence.At(index).task->app;
    if (resolved.insert(kind).second) {
      (void)acquire(kind, /*first=*/true);
    }
  }
  out.rip_ms = rips > 0 ? rip_ms / rips : 0.0;
  out.compile_ms = rips > 0 ? compile_ms / rips : 0.0;
  out.artifact_load_ms = loads > 0 ? load_ms / loads : 0.0;

  support::TraceRecorder& tracer = support::TraceRecorder::Global();
  tracer.Discard();
  const support::MetricsSnapshot before = support::MetricsRegistry::Global().Snapshot();
  tracer.SetEnabled(true);
  for (uint64_t index : sample) {
    const SessionSpec spec = sequence.At(index);
    const workload::Task& task = *spec.task;
    const std::string request_frame = EncodeRequest(spec);
    const uint64_t run_id = support::AllocateTraceRunId();
    support::TraceContextScope scope(support::TraceContext{run_id, 0});
    support::TraceSpan session_span("bench.session", "bench");
    serve::Request request;
    {
      LayerCall call("bench.decode", out.call_us["serve.decode"]);
      support::Result<serve::Request> parsed = DecodeRequest(request_frame);
      if (!parsed.ok()) {
        std::fprintf(stderr, "replay decode: %s\n", parsed.status().ToString().c_str());
        std::exit(3);
      }
      request = std::move(*parsed);
    }
    std::shared_ptr<const dmi::CompiledModel> model;
    {
      LayerCall call("bench.acquire", out.call_us["dmi.acquire"]);
      model = acquire(task.app, /*first=*/false);
    }
    // Per-run state exactly as TaskRunner::RunOnce builds it.
    gsim::InstabilityInjector injector(config.instability, spec.seed ^ 0x5eedf00dULL);
    agentsim::SimLlm llm(config.profile, spec.seed);
    std::shared_ptr<support::FlightRecorder> flight;
    if (config.flight_recorder_events > 0) {
      flight = std::make_shared<support::FlightRecorder>(run_id, config.flight_recorder_events);
      llm.AttachFlightRecorder(flight.get());
    }
    workload::AppPool::Lease lease;
    {
      LayerCall call("bench.lease", out.call_us["workload.lease"]);
      lease = runner.app_pool().Acquire(task, config.pool_apps);
    }
    gsim::Application& app = *lease;
    app.SetInstability(&injector);
    const bool dmi_mode = config.mode == agentsim::InterfaceMode::kGuiPlusDmi;
    if (config.batch.enabled) {
      const dmi::CompiledModel* prefix = dmi_mode ? model.get() : nullptr;
      llm.AttachBatchSink(&batches, prefix, prefix != nullptr ? prefix->static_prompt_tokens() : 0,
                          workload::AppKindName(task.app));
    }
    agentsim::RunResult result;
    if (dmi_mode) {
      std::unique_ptr<dmi::DmiSession> session;
      {
        LayerCall call("bench.attach", out.call_us["dmi.attach"]);
        dmi::SessionOptions session_options;
        session_options.visit = config.visit;
        session_options.interaction = model->options().interaction;
        session_options.interaction.retry = config.interaction_retry;
        session = std::make_unique<dmi::DmiSession>(app, model, session_options);
      }
      session->SeedRetryRng(spec.seed);
      if (config.run_deadline_ticks > 0) {
        session->SetRunDeadline(
            support::Deadline::AtTicks(app.current_tick(), config.run_deadline_ticks));
      }
      session->SetFlightRecorder(flight.get());
      agentsim::DmiAgentConfig agent_config;
      agent_config.step_cap = config.step_cap;
      agent_config.capture_report_json = config.capture_report_json;
      agentsim::DmiAgent agent(agent_config);
      LayerCall call("bench.run", out.call_us["agent.run"]);
      result = agent.Run(task, *session, llm);
    } else {
      agentsim::BaselineConfig agent_config;
      agent_config.step_cap = config.step_cap;
      agent_config.forest_knowledge = config.mode == agentsim::InterfaceMode::kGuiOnlyForest;
      agent_config.forest_knowledge_tokens = model->stats().core_tokens;
      agentsim::BaselineGuiAgent agent(agent_config);
      LayerCall call("bench.run", out.call_us["agent.run"]);
      result = agent.Run(task, app, llm, &injector);
    }
    if (flight != nullptr && !result.success) {
      flight->RecordNote("run failed: " + std::string(agentsim::FailureCauseName(result.cause)));
    }
    {
      LayerCall call("bench.verify", out.call_us["workload.verify"]);
      (void)task.verify(app);
    }
    {
      LayerCall call("bench.reset", out.call_us["workload.reset"]);
      lease.Release();
    }
    result.run_id = run_id;
    result.flight = std::move(flight);
    {
      LayerCall call("bench.encode", out.call_us["serve.encode"]);
      serve::Response response;
      response.request_id = request.request_id;
      response.tenant = request.tenant;
      response.task_id = request.task_id;
      response.run_id = run_id;
      response.status = support::Status::Ok();
      response.result = result;
      std::string frame;
      serve::AppendFrame(frame, serve::ResponseJson(response).Dump());
    }
    const std::vector<std::string> diff = DiffRunResults(served.sampled.at(index), result);
    if (!diff.empty()) {
      ++out.mismatches;
      std::string fields;
      for (const std::string& f : diff) {
        fields += (fields.empty() ? "" : ",") + f;
      }
      std::printf("# MISMATCH replay vs served: session %llu task %s seed %llu: %s\n",
                  static_cast<unsigned long long>(index), task.id.c_str(),
                  static_cast<unsigned long long>(spec.seed), fields.c_str());
    }
    out.llm_calls += result.llm_calls;
    out.prompt_tokens += static_cast<double>(result.prompt_tokens);
    ++out.sessions;
  }
  if (out.sessions > 0) {
    out.llm_calls /= static_cast<double>(out.sessions);
    out.prompt_tokens /= static_cast<double>(out.sessions);
  }
  tracer.SetEnabled(false);
  batches.FlushAll();
  const std::vector<support::TraceEvent> events = tracer.Drain();
  const support::MetricsSnapshot after = support::MetricsRegistry::Global().Snapshot();
  out.counters = CounterDelta(before, after);

  // Unattributed: session time no program span covers. Agent self time: the
  // Run call minus what the agent's callees (visit, batch, ...) cover.
  double uncovered_us = 0.0, agent_self_us = 0.0;
  for (const support::TraceEvent& e : events) {
    if (e.name == "bench.session") {
      out.session_us_total += static_cast<double>(e.dur_us);
      uncovered_us += static_cast<double>(e.dur_us) - ForeignCoveredUs(events, e, {"bench."});
    } else if (e.name == "bench.run") {
      agent_self_us +=
          static_cast<double>(e.dur_us) - ForeignCoveredUs(events, e, {"bench.", "agent."});
    }
  }
  out.unattributed_pct =
      out.session_us_total > 0 ? 100.0 * uncovered_us / out.session_us_total : 0.0;
  out.agent_self_us = out.sessions > 0 ? agent_self_us / static_cast<double>(out.sessions) : 0.0;
  return out;
}

}  // namespace perfbench
