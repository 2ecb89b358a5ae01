// Differential test: VisitExecutor::LocateControl (exact probe + fuzzy
// scoring over the VisibleIndex's top-window slice) must return the same
// control as the reference top-window tree walk (tests/locate_oracle.h) for
// every DAG node of Word, Excel and PowerPoint, across the UI states that
// change what the top window shows: ribbon tabs, open (and adopted shared)
// popups, modal dialogs, forced-offscreen panes, pending-reveal popups,
// decorated names and names containing the id separator '|'. Threshold
// edges and equal-score ties are pinned separately.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/agent/task_runner.h"
#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/compiled_model.h"
#include "src/dmi/visit.h"
#include "src/gui/instability.h"
#include "src/ripper/ripper.h"
#include "src/uia/tree.h"
#include "tests/locate_oracle.h"

namespace {

using workload::AppKind;

std::unique_ptr<gsim::Application> MakeApp(AppKind kind) {
  switch (kind) {
    case AppKind::kWord:
      return std::make_unique<apps::WordSim>();
    case AppKind::kExcel:
      return std::make_unique<apps::ExcelSim>();
    case AppKind::kPpoint:
      return std::make_unique<apps::PpointSim>();
  }
  return nullptr;
}

// One compiled model per app kind, shared by the tests of this process.
const dmi::CompiledModel& Model(AppKind kind) {
  static std::shared_ptr<const dmi::CompiledModel> models[3];
  std::shared_ptr<const dmi::CompiledModel>& model = models[static_cast<int>(kind)];
  if (model == nullptr) {
    const dmi::ModelingOptions options = agentsim::TaskRunner::DefaultModelingOptions(kind);
    std::unique_ptr<gsim::Application> scratch = MakeApp(kind);
    ripper::GuiRipper rip(*scratch, options.ripper_config);
    const topo::NavGraph graph = rip.Rip(options.contexts).Canonicalized();
    model = dmi::CompiledModel::Compile(graph, options);
  }
  return *model;
}

// Visible controls of the top window, in pre-order.
std::vector<gsim::Control*> VisibleInTop(gsim::Application& app) {
  std::vector<gsim::Control*> out;
  uia::Walk(app.TopWindow()->root(), [&](uia::Element& e, int) {
    if (e.IsOffscreen()) {
      return false;
    }
    out.push_back(static_cast<gsim::Control*>(&e));
    return true;
  });
  return out;
}

gsim::Control* FirstVisible(gsim::Application& app,
                            const std::function<bool(gsim::Control&)>& pred) {
  for (gsim::Control* c : VisibleInTop(app)) {
    if (pred(*c)) {
      return c;
    }
  }
  return nullptr;
}

bool OwnsPopup(gsim::Control& c) {
  return c.click_effect() == gsim::ClickEffect::kRevealPopup && c.popup() != nullptr &&
         !c.popup()->floating() && !c.popup_open();
}

bool HostsSharedPopup(gsim::Control& c) {
  return c.click_effect() == gsim::ClickEffect::kRevealPopup && c.popup() != nullptr &&
         c.popup()->floating() && !c.popup_open();
}

bool OpensDialog(gsim::Control& c) {
  return c.click_effect() == gsim::ClickEffect::kOpenDialog && !c.dialog_id().empty();
}

std::vector<gsim::Control*> VisibleWhere(gsim::Application& app,
                                         const std::function<bool(gsim::Control&)>& pred) {
  std::vector<gsim::Control*> out;
  for (gsim::Control* c : VisibleInTop(app)) {
    if (pred(*c)) {
      out.push_back(c);
    }
  }
  return out;
}

// Clicks the first visible control matching `pred`, searching the fresh UI,
// then each ribbon tab, each one menu deep (targets often live behind a tab
// and a menu). Returns the clicked control, or nullptr if none was reachable.
gsim::Control* ClickReachable(gsim::Application& app,
                              const std::function<bool(gsim::Control&)>& pred) {
  std::vector<gsim::Control*> tabs = {nullptr};
  for (gsim::Control* tab : VisibleWhere(app, [](gsim::Control& c) {
         return c.click_effect() == gsim::ClickEffect::kSwitchTab;
       })) {
    tabs.push_back(tab);
  }
  for (gsim::Control* tab : tabs) {
    app.CloseAllPopups();
    if (tab != nullptr && !app.Click(*tab).ok()) {
      continue;
    }
    if (gsim::Control* target = FirstVisible(app, pred)) {
      return app.Click(*target).ok() ? target : nullptr;
    }
    for (gsim::Control* host : VisibleWhere(app, OwnsPopup)) {
      app.CloseAllPopups();
      if (!app.Click(*host).ok()) {
        continue;
      }
      if (gsim::Control* target = FirstVisible(app, pred)) {
        return app.Click(*target).ok() ? target : nullptr;
      }
    }
  }
  return nullptr;
}

class LocateDifferential : public ::testing::TestWithParam<AppKind> {
 protected:
  void SetUp() override {
    app_ = MakeApp(GetParam());
    executor_ = std::make_unique<dmi::VisitExecutor>(*app_, Model(GetParam()).catalog(),
                                                     dmi::VisitConfig{});
  }

  const topo::NavGraph& dag() const { return Model(GetParam()).catalog().dag(); }

  // Every DAG node must locate to the oracle's control in the current state,
  // and some node must locate at all (a state that hides everything would
  // pass vacuously).
  void ExpectAgreement(const std::string& state) {
    const double threshold = dmi::VisitConfig{}.fuzzy_threshold;
    size_t located = 0;
    size_t mismatches = 0;
    for (int i = 0; i < static_cast<int>(dag().node_count()); ++i) {
      const topo::NodeInfo& info = dag().node(i);
      gsim::Control* want = locate_oracle::Locate(*app_, info, threshold);
      gsim::Control* got = executor_->LocateControl(info);
      if (got != want && ++mismatches <= 5) {
        ADD_FAILURE() << state << ": node " << i << " '" << info.control_id << "' -> "
                      << (got ? got->TrueName() : "null") << ", oracle "
                      << (want ? want->TrueName() : "null");
      }
      located += want != nullptr ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << state;
    EXPECT_GT(located, 0u) << state;
  }

  // Declared first so it outlives the app that borrows it.
  std::unique_ptr<gsim::InstabilityInjector> injector_;
  std::unique_ptr<gsim::Application> app_;
  std::unique_ptr<dmi::VisitExecutor> executor_;
};

TEST_P(LocateDifferential, FreshUi) { ExpectAgreement("fresh"); }

TEST_P(LocateDifferential, SwitchedRibbonTab) {
  const std::vector<gsim::Control*> tabs = VisibleWhere(*app_, [](gsim::Control& c) {
    return c.click_effect() == gsim::ClickEffect::kSwitchTab;
  });
  ASSERT_GE(tabs.size(), 2u);
  for (size_t t = 1; t < tabs.size(); t += 2) {
    ASSERT_TRUE(app_->Click(*tabs[t]).ok());
    ExpectAgreement("tab " + tabs[t]->TrueName());
  }
}

TEST_P(LocateDifferential, OpenOwnedPopup) {
  gsim::Control* host = ClickReachable(*app_, OwnsPopup);
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(host->popup_open());
  ExpectAgreement("popup of " + host->TrueName());
}

TEST_P(LocateDifferential, OpenAdoptedSharedPopup) {
  gsim::Control* host = ClickReachable(*app_, HostsSharedPopup);
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(host->popup_open());
  ASSERT_EQ(host->popup()->parent_control(), host);  // adopted by this host
  ExpectAgreement("shared popup of " + host->TrueName());
}

TEST_P(LocateDifferential, ModalDialogOnTop) {
  gsim::Control* opener = ClickReachable(*app_, OpensDialog);
  ASSERT_NE(opener, nullptr);
  ASSERT_NE(app_->TopWindow(), &app_->main_window());
  ExpectAgreement("dialog from " + opener->TrueName());
  // A popup inside the dialog, when it has one.
  if (gsim::Control* host = FirstVisible(*app_, OwnsPopup)) {
    ASSERT_TRUE(app_->Click(*host).ok());
    ExpectAgreement("dialog popup of " + host->TrueName());
  }
}

TEST_P(LocateDifferential, ForcedOffscreenPane) {
  // Hide the first non-root pane that holds clickable controls.
  gsim::Control* pane = nullptr;
  for (gsim::Control* c : VisibleInTop(*app_)) {
    if (c != &app_->main_window().root() && c->Type() == uia::ControlType::kPane &&
        c->StaticChildren().size() > 1) {
      pane = c;
      break;
    }
  }
  ASSERT_NE(pane, nullptr);
  pane->SetForcedOffscreen(true);
  ExpectAgreement("offscreen " + pane->TrueName());
}

TEST_P(LocateDifferential, PendingRevealPopup) {
  gsim::InstabilityConfig slow;
  slow.slow_load_rate = 1.0;
  slow.slow_load_ticks = 3;
  injector_ = std::make_unique<gsim::InstabilityInjector>(slow, 7);
  app_->SetInstability(injector_.get());
  gsim::Control* host = FirstVisible(*app_, OwnsPopup);
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(app_->Click(*host).ok());
  ASSERT_TRUE(app_->IsPendingReveal(*host->popup()));
  ExpectAgreement("pending popup of " + host->TrueName());
  for (int t = 0; t < 3; ++t) {
    app_->Tick();
  }
  ASSERT_FALSE(app_->IsPendingReveal(*host->popup()));
  ExpectAgreement("revealed popup of " + host->TrueName());
}

TEST_P(LocateDifferential, HarshDecoratedNames) {
  injector_ = std::make_unique<gsim::InstabilityInjector>(gsim::InstabilityConfig::Harsh(), 11);
  app_->SetInstability(injector_.get());
  ExpectAgreement("harsh fresh");
  gsim::Control* host = FirstVisible(*app_, OwnsPopup);
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(app_->Click(*host).ok());
  for (int t = 0; t < 8; ++t) {
    app_->Tick();  // let a slow-loading popup materialize
  }
  ExpectAgreement("harsh popup of " + host->TrueName());
}

TEST_P(LocateDifferential, NamesContainingSeparator) {
  // Rename a popup host (an ancestor of its items' paths) and a leaf so both
  // ids and ancestor paths carry '|'.
  gsim::Control* host = FirstVisible(*app_, OwnsPopup);
  ASSERT_NE(host, nullptr);
  host->RenameTo(host->TrueName() + "|More");
  ASSERT_TRUE(app_->Click(*host).ok());
  gsim::Control* leaf = FirstVisible(*app_, [&](gsim::Control& c) {
    return c.parent_control() == host->popup() && c.AutomationId().empty();
  });
  if (leaf == nullptr) {
    leaf = FirstVisible(*app_, [](gsim::Control& c) {
      return c.AutomationId().empty() && c.StaticChildren().empty();
    });
  }
  ASSERT_NE(leaf, nullptr);
  leaf->RenameTo("A|" + leaf->TrueName());
  ExpectAgreement("separator names");

  // Nodes whose own modeled name and id carry '|': the renamed controls'
  // current ids hit the exact probe; decorated variants go through scoring.
  for (gsim::Control* c : {host, leaf}) {
    topo::NodeInfo info;
    info.control_id = ripper::SynthesizeControlId(*c);
    info.name = c->TrueName();
    info.type = c->Type();
    EXPECT_EQ(executor_->LocateControl(info), c) << info.control_id;
    EXPECT_EQ(locate_oracle::Locate(*app_, info, 0.72), c);
    info.control_id = "renamed-away|" + info.control_id;
    info.name += " (Ctrl+Q)";
    EXPECT_EQ(executor_->LocateControl(info), locate_oracle::Locate(*app_, info, 0.72))
        << info.control_id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, LocateDifferential,
                         ::testing::Values(AppKind::kWord, AppKind::kExcel, AppKind::kPpoint),
                         [](const ::testing::TestParamInfo<AppKind>& p) {
                           return std::string(workload::AppKindName(p.param));
                         });

// ----- threshold edge and ties ----------------------------------------------------

// A miss probe for `target`: its name and type, but an id nothing carries
// and no modeled ancestor path (so only the name decides the score).
topo::NodeInfo MissProbe(const gsim::Control& target, const std::string& name) {
  topo::NodeInfo info;
  info.type = target.Type();
  info.name = name;
  info.control_id = "no-such-control|" + std::string(uia::ControlTypeName(target.Type())) + "|";
  return info;
}

TEST(LocateEdges, ScoreExactlyAtThresholdIsAcceptedAndJustAboveIsNot) {
  apps::WordSim app;
  gsim::Control* target = FirstVisible(app, [](gsim::Control& c) {
    return c.Type() == uia::ControlType::kButton && c.TrueName().size() > 4;
  });
  ASSERT_NE(target, nullptr);
  // A truncated name: fuzzy-only, with a score strictly inside (0, 1).
  const topo::NodeInfo info =
      MissProbe(*target, target->TrueName().substr(0, target->TrueName().size() - 1));
  const locate_oracle::WalkResult walk = locate_oracle::Walk(app, info);
  ASSERT_EQ(walk.exact, nullptr);
  ASSERT_NE(walk.best_fuzzy, nullptr);
  ASSERT_GT(walk.best_score, 0.0);
  ASSERT_LT(walk.best_score, 1.0);

  dmi::VisitConfig at;
  at.fuzzy_threshold = walk.best_score;
  dmi::VisitExecutor accept(app, Model(AppKind::kWord).catalog(), at);
  EXPECT_EQ(accept.LocateControl(info), walk.best_fuzzy);
  EXPECT_EQ(locate_oracle::Locate(app, info, at.fuzzy_threshold), walk.best_fuzzy);

  dmi::VisitConfig above;
  above.fuzzy_threshold = std::nextafter(walk.best_score, 2.0);
  dmi::VisitExecutor reject(app, Model(AppKind::kWord).catalog(), above);
  EXPECT_EQ(reject.LocateControl(info), nullptr);
  EXPECT_EQ(locate_oracle::Locate(app, info, above.fuzzy_threshold), nullptr);
}

TEST(LocateEdges, EqualScoresResolveToTheFirstInPreOrder) {
  apps::WordSim app;
  dmi::VisitExecutor executor(app, Model(AppKind::kWord).catalog(), dmi::VisitConfig{});
  // Two visible buttons under different ancestors, showing the same name:
  // with no modeled ancestor path both score exactly 0.8 x 1.0 + 0.2 x 0.
  std::vector<gsim::Control*> buttons = VisibleWhere(app, [](gsim::Control& c) {
    return c.Type() == uia::ControlType::kButton && c.AutomationId().empty();
  });
  ASSERT_GE(buttons.size(), 2u);
  gsim::Control* first = buttons.front();
  gsim::Control* second = nullptr;
  for (gsim::Control* c : buttons) {
    if (uia::AncestorPath(*c) != uia::AncestorPath(*first)) {
      second = c;
      break;
    }
  }
  ASSERT_NE(second, nullptr);
  first->RenameTo("Tie Probe");
  second->RenameTo("Tie Probe");
  const topo::NodeInfo info = MissProbe(*first, "Tie Probe");
  const locate_oracle::WalkResult walk = locate_oracle::Walk(app, info);
  ASSERT_EQ(walk.best_fuzzy, first);
  ASSERT_DOUBLE_EQ(walk.best_score, 0.8);
  EXPECT_EQ(executor.LocateControl(info), first);
  // Hiding the first leaves the second as the (now unique) best.
  first->SetForcedOffscreen(true);
  EXPECT_EQ(executor.LocateControl(info), second);
  EXPECT_EQ(locate_oracle::Locate(app, info, 0.72), second);
}

TEST(LocateEdges, FuzzyOffMissesWithoutScoring) {
  apps::WordSim app;
  dmi::VisitConfig config;
  config.enable_fuzzy_match = false;
  dmi::VisitExecutor executor(app, Model(AppKind::kWord).catalog(), config);
  gsim::Control* target = FirstVisible(app, [](gsim::Control& c) {
    return c.Type() == uia::ControlType::kButton && !c.TrueName().empty();
  });
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(executor.LocateControl(MissProbe(*target, target->TrueName())), nullptr);
  topo::NodeInfo exact = MissProbe(*target, target->TrueName());
  exact.control_id = ripper::SynthesizeControlId(*target);
  EXPECT_EQ(executor.LocateControl(exact), locate_oracle::Locate(app, exact, 0.72));
}

}  // namespace
