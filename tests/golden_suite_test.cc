// Golden pin of seeded end-to-end suite outcomes (the Table 3 numbers).
//
// Every (interface mode x robustness policy) cell runs the full 27-task
// OSWorld-W suite under three suite seeds with three trials each, and pins each
// run's success, llm_calls, prompt_tokens, sim_time_s and failure cause. The
// pin is an FNV-1a hash over the exact per-run listing (sim_time_s as its
// IEEE-754 bit pattern) plus a readable aggregate summary. The values were
// captured before the visit executor's locate moved onto the VisibleIndex;
// any change that moves a single run of a single task fails here, and the
// failure message prints the full listing so the moved run can be diffed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/agent/failure.h"
#include "src/agent/task_runner.h"
#include "src/dmi/policy.h"
#include "src/gui/application.h"
#include "src/support/strings.h"
#include "src/workload/tasks.h"

namespace {

using agentsim::InterfaceMode;

agentsim::TaskRunner& Runner() {
  static agentsim::TaskRunner* runner = new agentsim::TaskRunner();
  return *runner;
}

struct Pin {
  uint64_t hash = 0;
  std::string summary;
  std::string listing;
};

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

Pin RunCell(InterfaceMode mode, const dmi::Policy& policy) {
  const std::vector<workload::Task> tasks = workload::BuildOsworldWSuite();
  Pin pin;
  gsim::StateHash hash;
  int runs = 0;
  int successes = 0;
  long long calls = 0;
  unsigned long long tokens = 0;
  double sim_time = 0.0;
  std::map<std::string, int> causes;
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    agentsim::RunConfig cfg;
    cfg.mode = mode;
    cfg.profile = agentsim::LlmProfile::Gpt5Medium();
    cfg.seed = seed;
    cfg.repeats = 3;
    cfg.ApplyPolicy(policy);
    const agentsim::SuiteResult suite = Runner().RunSuite(tasks, cfg);
    for (const agentsim::TaskRecord& record : suite.records) {
      for (size_t trial = 0; trial < record.runs.size(); ++trial) {
        const agentsim::RunResult& r = record.runs[trial];
        const std::string cause(agentsim::FailureCauseName(r.cause));
        const std::string line = support::Format(
            "seed=%llu %s/%zu ok=%d calls=%d prompt=%zu sim=%016llx cause=%s\n",
            static_cast<unsigned long long>(seed), record.task_id.c_str(), trial,
            r.success ? 1 : 0, r.llm_calls, r.prompt_tokens,
            static_cast<unsigned long long>(DoubleBits(r.sim_time_s)), cause.c_str());
        pin.listing += line;
        hash.Mix(line);
        ++runs;
        successes += r.success ? 1 : 0;
        calls += r.llm_calls;
        tokens += r.prompt_tokens;
        sim_time += r.sim_time_s;
        if (!r.success) {
          ++causes[cause];
        }
      }
    }
  }
  pin.hash = hash.digest();
  pin.summary = support::Format("runs=%d ok=%d calls=%lld prompt=%llu sim=%.3f", runs,
                                successes, calls, tokens, sim_time);
  for (const auto& [cause, n] : causes) {
    pin.summary += support::Format(" %s=%d", cause.c_str(), n);
  }
  return pin;
}

void ExpectPinned(InterfaceMode mode, const dmi::Policy& policy, uint64_t hash,
                  const std::string& summary) {
  const Pin pin = RunCell(mode, policy);
  EXPECT_EQ(pin.summary, summary);
  EXPECT_EQ(pin.hash, hash) << support::Format("actual hash 0x%016llx\n",
                                               static_cast<unsigned long long>(pin.hash))
                            << pin.listing;
}

TEST(GoldenSuite, DmiTypical) {
  ExpectPinned(InterfaceMode::kGuiPlusDmi, dmi::Policy::Typical(), 0x90372ab5580919f8ull,
               "runs=243 ok=162 calls=1056 prompt=9468400 sim=52733.137"
               " ambiguous task description=15"
               " composite interaction error=5"
               " control localization / navigation error=10"
               " misinterpretation of control semantics=26"
               " misunderstanding of subtle task semantics=13"
               " topology/modeling inaccuracy=8"
               " weak visual-semantic understanding=4");
}

TEST(GoldenSuite, DmiHarsh) {
  ExpectPinned(InterfaceMode::kGuiPlusDmi, dmi::Policy::Harsh(), 0xb0d0f71ae832f74cull,
               "runs=243 ok=146 calls=1058 prompt=9527775 sim=52870.992"
               " ambiguous task description=15"
               " composite interaction error=5"
               " control localization / navigation error=12"
               " misinterpretation of control semantics=40"
               " misunderstanding of subtle task semantics=13"
               " topology/modeling inaccuracy=8"
               " weak visual-semantic understanding=4");
}

TEST(GoldenSuite, GuiTypical) {
  ExpectPinned(InterfaceMode::kGuiOnly, dmi::Policy::Typical(), 0x2267cc38016848b3ull,
               "runs=243 ok=118 calls=1923 prompt=11857088 sim=96306.901"
               " ambiguous task description=18"
               " composite interaction error=17"
               " control localization / navigation error=9"
               " misinterpretation of control semantics=20"
               " misunderstanding of subtle task semantics=13"
               " visual recognition error=35"
               " weak visual-semantic understanding=13");
}

TEST(GoldenSuite, GuiHarsh) {
  ExpectPinned(InterfaceMode::kGuiOnly, dmi::Policy::Harsh(), 0x08c28685e7b568baull,
               "runs=243 ok=57 calls=2728 prompt=16958456 sim=136291.512"
               " ambiguous task description=18"
               " composite interaction error=18"
               " control localization / navigation error=77"
               " misinterpretation of control semantics=11"
               " misunderstanding of subtle task semantics=13"
               " visual recognition error=36"
               " weak visual-semantic understanding=13");
}

}  // namespace
