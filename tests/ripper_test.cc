#include <gtest/gtest.h>

#include <memory>

#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/gui/application.h"
#include "src/ripper/identifier.h"
#include "src/ripper/ripper.h"
#include "src/ripper/visible_index.h"
#include "src/topology/transform.h"
#include "src/topology/validate.h"
#include "src/uia/tree.h"

namespace {

// ----- identifier synthesis --------------------------------------------------------

TEST(IdentifierTest, PrefersAutomationId) {
  uia::SnapshotEntry entry;
  entry.automation_id = "btnSave";
  entry.name = "Save";
  entry.type = uia::ControlType::kButton;
  entry.ancestor_path = "App/Toolbar";
  EXPECT_EQ(ripper::SynthesizeControlId(entry), "btnSave|Button|App/Toolbar");
}

TEST(IdentifierTest, FallsBackToNameThenUnnamed) {
  uia::SnapshotEntry entry;
  entry.name = "Save";
  entry.type = uia::ControlType::kButton;
  entry.ancestor_path = "App";
  EXPECT_EQ(ripper::SynthesizeControlId(entry), "Save|Button|App");
  entry.name = "";
  EXPECT_EQ(ripper::SynthesizeControlId(entry), "[Unnamed]|Button|App");
}

TEST(IdentifierTest, ParseRoundTrip) {
  auto parsed = ripper::ParseControlId("Blue|ListItem|Color Palette");
  EXPECT_EQ(parsed.primary_id, "Blue");
  EXPECT_EQ(parsed.control_type, "ListItem");
  EXPECT_EQ(parsed.ancestor_path, "Color Palette");
}

TEST(IdentifierTest, ParseDegenerateForms) {
  EXPECT_EQ(ripper::ParseControlId("justname").primary_id, "justname");
  EXPECT_EQ(ripper::ParseControlId("a|b").control_type, "b");
}

TEST(IdentifierTest, ParsePrimaryContainingSeparator) {
  // A control named "A|B": the type field anchors the split.
  auto parsed = ripper::ParseControlId("A|B|Button|App");
  EXPECT_EQ(parsed.primary_id, "A|B");
  EXPECT_EQ(parsed.control_type, "Button");
  EXPECT_EQ(parsed.ancestor_path, "App");
}

TEST(IdentifierTest, ParseAncestorContainingSeparator) {
  // An ancestor named "Weird|Name": the valid type pair sits left of the
  // stray separator.
  auto parsed = ripper::ParseControlId("Save|Button|App/Weird|Name");
  EXPECT_EQ(parsed.primary_id, "Save");
  EXPECT_EQ(parsed.control_type, "Button");
  EXPECT_EQ(parsed.ancestor_path, "App/Weird|Name");
}

TEST(IdentifierTest, ParseNoValidTypeFallsBackToLastTwoSeparators) {
  auto parsed = ripper::ParseControlId("a|b|c|d");
  EXPECT_EQ(parsed.primary_id, "a|b");
  EXPECT_EQ(parsed.control_type, "c");
  EXPECT_EQ(parsed.ancestor_path, "d");
}

TEST(IdentifierTest, SynthesizeParseRoundTripWithPathologicalName) {
  uia::SnapshotEntry entry;
  entry.name = "We|ird";
  entry.type = uia::ControlType::kButton;
  entry.ancestor_path = "App/Toolbar";
  const std::string id = ripper::SynthesizeControlId(entry);
  EXPECT_EQ(id, "We|ird|Button|App/Toolbar");
  auto parsed = ripper::ParseControlId(id);
  EXPECT_EQ(parsed.primary_id, "We|ird");
  EXPECT_EQ(parsed.control_type, "Button");
  EXPECT_EQ(parsed.ancestor_path, "App/Toolbar");
}

// ----- ripping a small controlled app ----------------------------------------------

class SmallApp : public gsim::Application {
 public:
  SmallApp() : gsim::Application("SmallApp") {
    gsim::Control& root = main_window().root();
    shared_ = RegisterSharedSubtree(
        std::make_unique<gsim::Control>("Shared Panel", uia::ControlType::kList));
    shared_->NewChild("Cell One", uia::ControlType::kListItem)->SetCommand("pick");
    shared_->NewChild("Cell Two", uia::ControlType::kListItem)->SetCommand("pick");

    gsim::Control* bar = root.NewChild("Bar", uia::ControlType::kToolBar);
    gsim::Control* m1 = bar->NewChild("Host A", uia::ControlType::kMenuItem);
    m1->SetSharedPopup(shared_);
    gsim::Control* m2 = bar->NewChild("Host B", uia::ControlType::kMenuItem);
    m2->SetSharedPopup(shared_);

    gsim::Control* menu = bar->NewChild("Plain Menu", uia::ControlType::kMenuItem);
    auto popup = std::make_unique<gsim::Control>("Plain Popup", uia::ControlType::kMenu);
    popup->NewChild("Leaf Action", uia::ControlType::kButton)->SetCommand("x");
    menu->SetPopup(std::move(popup));

    root.NewChild("Trap", uia::ControlType::kHyperlink)
        ->SetClickEffect(gsim::ClickEffect::kExternal);
  }

  gsim::Control* shared_;
};

TEST(RipperTest, DiscoversMergeNodeViaSharedPopup) {
  SmallApp app;
  ripper::RipperConfig config;
  config.blocklist = {"Trap"};
  ripper::GuiRipper r(app, config);
  topo::NavGraph graph = r.Rip();
  // The shared panel root must be a single node with two in-edges.
  int panel = graph.FindNode("Shared Panel|List|");
  ASSERT_GE(panel, 0) << "shared panel not found as a floating surface";
  EXPECT_EQ(graph.InDegrees()[static_cast<size_t>(panel)], 2);
  // Its cells exist once.
  EXPECT_GE(graph.FindNode("Cell One|ListItem|Shared Panel"), 0);
}

TEST(RipperTest, DiscoversOwnedMenuContents) {
  SmallApp app;
  ripper::RipperConfig config;
  config.blocklist = {"Trap"};
  ripper::GuiRipper r(app, config);
  topo::NavGraph graph = r.Rip();
  bool found_leaf = false;
  for (size_t i = 0; i < graph.node_count(); ++i) {
    if (graph.node(static_cast<int>(i)).name == "Leaf Action") {
      found_leaf = true;
    }
  }
  EXPECT_TRUE(found_leaf);
}

TEST(RipperTest, BlocklistPreventsExternalRecoveries) {
  SmallApp app;
  ripper::RipperConfig config;
  config.blocklist = {"Trap"};
  ripper::GuiRipper r(app, config);
  (void)r.Rip();
  EXPECT_EQ(r.stats().external_recoveries, 0u);
}

TEST(RipperTest, MissingBlocklistCostsRecoveries) {
  SmallApp app;
  ripper::GuiRipper r(app, ripper::RipperConfig{});
  (void)r.Rip();
  EXPECT_GE(r.stats().external_recoveries, 1u);
}

TEST(RipperTest, GraphValidatesThroughPipeline) {
  SmallApp app;
  ripper::RipperConfig config;
  config.blocklist = {"Trap"};
  ripper::GuiRipper r(app, config);
  topo::NavGraph graph = r.Rip();
  auto dag = topo::Decycle(graph).dag;
  topo::Forest forest = topo::SelectiveExternalize(dag, 0);
  auto report = topo::ValidateForest(dag, forest);
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
}

// ----- context-aware exploration -----------------------------------------------------

TEST(RipperTest, ContextRevealsContextualControls) {
  apps::PpointSim app;
  ripper::RipperConfig config;
  config.blocklist = {"Account"};
  config.max_depth = 4;  // keep this test fast
  ripper::GuiRipper r(app, config);

  // Without the image context, the Picture Format tab is invisible.
  topo::NavGraph without = r.Rip();
  bool tab_without = false;
  for (size_t i = 0; i < without.node_count(); ++i) {
    tab_without |= without.node(static_cast<int>(i)).name == "Picture Format";
  }
  EXPECT_FALSE(tab_without);

  apps::PpointSim app2;
  ripper::GuiRipper r2(app2, config);
  ripper::RipContext image_context;
  image_context.name = "image-selected";
  image_context.setup = [](gsim::Application& a) {
    auto& pp = static_cast<apps::PpointSim&>(a);
    pp.SetCurrentSlide(2);
    gsim::Control* image = nullptr;
    pp.main_window().root().WalkStatic([&](gsim::Control& c) {
      if (image == nullptr && c.Type() == uia::ControlType::kImage && !c.IsOffscreen()) {
        image = &c;
      }
    });
    if (image != nullptr) {
      (void)a.Click(*image);
    }
  };
  topo::NavGraph with = r2.Rip({image_context});
  bool tab_with = false;
  for (size_t i = 0; i < with.node_count(); ++i) {
    tab_with |= with.node(static_cast<int>(i)).name == "Picture Format";
  }
  EXPECT_TRUE(tab_with);
  EXPECT_EQ(r2.stats().contexts, 2u);
}

// ----- determinism: index caching and parallel context ripping ----------------------

namespace determinism {

ripper::RipContext ImageContext() {
  ripper::RipContext context;
  context.name = "image-selected";
  context.setup = [](gsim::Application& a) {
    auto& pp = static_cast<apps::PpointSim&>(a);
    pp.SetCurrentSlide(2);
    gsim::Control* image = nullptr;
    pp.main_window().root().WalkStatic([&](gsim::Control& c) {
      if (image == nullptr && c.Type() == uia::ControlType::kImage && !c.IsOffscreen()) {
        image = &c;
      }
    });
    if (image != nullptr) {
      (void)a.Click(*image);
    }
  };
  return context;
}

// Rips one app family with the index on and off; the graphs must be
// byte-identical (node order, ids, edges — everything).
template <typename App>
void ExpectCachedMatchesUncached(const std::vector<ripper::RipContext>& contexts,
                                 int max_depth) {
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  config.max_depth = max_depth;

  config.use_visible_index = true;
  App cached_app;
  ripper::GuiRipper cached(cached_app, config);
  const std::string cached_json = cached.Rip(contexts).ToJson().Dump();

  config.use_visible_index = false;
  App uncached_app;
  ripper::GuiRipper uncached(uncached_app, config);
  const std::string uncached_json = uncached.Rip(contexts).ToJson().Dump();

  EXPECT_EQ(cached_json, uncached_json);
  // Logical rip metrics must be unchanged by caching too.
  EXPECT_EQ(cached.stats().clicks, uncached.stats().clicks);
  EXPECT_EQ(cached.stats().captures, uncached.stats().captures);
  EXPECT_EQ(cached.stats().explored, uncached.stats().explored);
  EXPECT_DOUBLE_EQ(cached.stats().simulated_ms, uncached.stats().simulated_ms);
  // And the cache must actually have been exercised.
  EXPECT_GT(cached.stats().capture_cache_hits, 0u);
  EXPECT_EQ(uncached.stats().capture_cache_hits, 0u);
}

}  // namespace determinism

TEST(RipperDeterminismTest, CachedMatchesUncachedWord) {
  determinism::ExpectCachedMatchesUncached<apps::WordSim>({}, 4);
}

TEST(RipperDeterminismTest, CachedMatchesUncachedExcel) {
  determinism::ExpectCachedMatchesUncached<apps::ExcelSim>({}, 4);
}

TEST(RipperDeterminismTest, CachedMatchesUncachedPpointWithContext) {
  determinism::ExpectCachedMatchesUncached<apps::PpointSim>({determinism::ImageContext()},
                                                            4);
}

TEST(RipperDeterminismTest, ParallelContextsMatchSerial) {
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  config.max_depth = 4;

  ripper::ParallelRipOptions serial_options;
  serial_options.app_factory = [] { return std::make_unique<apps::PpointSim>(); };
  serial_options.pool = nullptr;
  ripper::RipResult serial =
      ripper::RipAppContexts(config, {determinism::ImageContext()}, serial_options);

  support::ThreadPool pool(3);
  ripper::ParallelRipOptions parallel_options = serial_options;
  parallel_options.pool = &pool;
  ripper::RipResult parallel =
      ripper::RipAppContexts(config, {determinism::ImageContext()}, parallel_options);

  EXPECT_EQ(serial.graph.ToJson().Dump(), parallel.graph.ToJson().Dump());
  EXPECT_EQ(serial.stats.clicks, parallel.stats.clicks);
  EXPECT_EQ(serial.stats.captures, parallel.stats.captures);
  EXPECT_EQ(serial.stats.explored, parallel.stats.explored);
  // The contextual tab reached through the image context must be present.
  bool tab = false;
  for (size_t i = 0; i < parallel.graph.node_count(); ++i) {
    tab |= parallel.graph.node(static_cast<int>(i)).name == "Picture Format";
  }
  EXPECT_TRUE(tab);
}

TEST(RipperDeterminismTest, SingleContextParallelMatchesClassicRipCanonicalized) {
  // With no extra contexts there is no shared-exploration divergence, so the
  // independent-context rip equals the classic Rip() up to node ordering.
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  config.max_depth = 4;

  apps::WordSim app;
  ripper::GuiRipper classic(app, config);
  const std::string classic_json = classic.Rip().Canonicalized().ToJson().Dump();

  ripper::ParallelRipOptions options;
  options.app_factory = [] { return std::make_unique<apps::WordSim>(); };
  ripper::RipResult independent = ripper::RipAppContexts(config, {}, options);

  EXPECT_EQ(classic_json, independent.graph.ToJson().Dump());
}

// ----- full-app rip (Word) -----------------------------------------------------------

TEST(RipperTest, WordRipReachesPaperScale) {
  apps::WordSim app;
  ripper::RipperConfig config;
  config.blocklist = {"Account", "Feedback"};
  ripper::GuiRipper r(app, config);
  topo::NavGraph graph = r.Rip();
  // §5.2: raw modeled graphs exceed 4K controls.
  EXPECT_GT(graph.node_count(), 4000u) << graph.node_count();
  topo::GraphStats stats = graph.ComputeStats();
  EXPECT_GT(stats.merge_nodes, 0u);
  // Word's UI has cycles (the Text Effects pane pair).
  auto decycled = topo::Decycle(graph);
  EXPECT_GT(decycled.removed_back_edges, 0u);
  // And the full pipeline validates.
  topo::Forest forest =
      topo::SelectiveExternalize(decycled.dag, topo::kDefaultExternalizeThreshold);
  auto report = topo::ValidateForest(decycled.dag, forest);
  EXPECT_TRUE(report.ok) << (report.problems.empty() ? "" : report.problems[0]);
}

// ----- VisibleIndex layout (window slices, ancestor-path offsets) -----------------

// Every entry's recorded path offset splits its id exactly where the legacy
// synthesis puts the ancestor path, and the per-window slices partition the
// pre-order capture in open-window order, each starting at its window root.
void ExpectLayoutConsistent(gsim::Application& app, ripper::VisibleIndex& index) {
  const std::vector<ripper::VisibleEntry>& all = index.Visible();
  size_t next = 0;
  for (gsim::Window* window : app.OpenWindows()) {
    const std::span<const ripper::VisibleEntry> slice = index.WindowEntries(window);
    ASSERT_FALSE(slice.empty()) << window->title();
    EXPECT_EQ(slice.front().control, &window->root()) << window->title();
    for (const ripper::VisibleEntry& entry : slice) {
      ASSERT_LT(next, all.size());
      EXPECT_EQ(&entry, &all[next]);
      ++next;
    }
  }
  EXPECT_EQ(next, all.size());
  for (const ripper::VisibleEntry& entry : all) {
    EXPECT_EQ(entry.control_id, ripper::SynthesizeControlId(*entry.control));
    EXPECT_EQ(entry.ancestor_path(), uia::AncestorPath(*entry.control)) << entry.control_id;
  }
}

TEST(VisibleIndexTest, WindowSlicesAndPathOffsetsMatchTheLegacyCapture) {
  apps::WordSim app;
  ripper::VisibleIndex index(app);
  ExpectLayoutConsistent(app, index);

  // Open a dialog: two windows, two slices, and the exact probe is scoped.
  gsim::Control* opener = nullptr;
  gsim::Control* main_button = nullptr;
  for (const ripper::VisibleEntry& entry : index.Visible()) {
    if (opener == nullptr && entry.control->click_effect() == gsim::ClickEffect::kOpenDialog) {
      opener = entry.control;
    }
    if (main_button == nullptr && entry.control->Type() == uia::ControlType::kButton) {
      main_button = entry.control;
    }
  }
  ASSERT_NE(opener, nullptr);
  ASSERT_NE(main_button, nullptr);
  const std::string main_id = ripper::SynthesizeControlId(*main_button);
  ASSERT_TRUE(app.Click(*opener).ok());
  gsim::Window* dialog = app.TopWindow();
  ASSERT_NE(dialog, &app.main_window());
  ExpectLayoutConsistent(app, index);
  EXPECT_EQ(index.FindByIdInWindow(main_id, &app.main_window()), main_button);
  EXPECT_EQ(index.FindByIdInWindow(main_id, dialog), nullptr);
  const std::string dialog_root_id = ripper::SynthesizeControlId(dialog->root());
  EXPECT_EQ(index.FindByIdInWindow(dialog_root_id, dialog), &dialog->root());

  // A closed window has no slice.
  app.CloseWindow(*dialog, /*commit=*/false);
  EXPECT_TRUE(index.WindowEntries(dialog).empty());
  EXPECT_EQ(index.FindByIdInWindow(dialog_root_id, dialog), nullptr);
}

TEST(VisibleIndexTest, SeparatorInNamesDoesNotShiftThePathOffset) {
  apps::WordSim app;
  ripper::VisibleIndex index(app);
  // Rename a control with children (its name feeds their ancestor paths) and
  // a leaf without an AutomationId (its name is the id's primary field).
  gsim::Control* parent = nullptr;
  gsim::Control* leaf = nullptr;
  for (const ripper::VisibleEntry& entry : index.Visible()) {
    gsim::Control* c = entry.control;
    if (parent == nullptr && c != &app.main_window().root() && !c->StaticChildren().empty()) {
      parent = c;
    }
    if (leaf == nullptr && c->StaticChildren().empty() && c->AutomationId().empty() &&
        !c->TrueName().empty()) {
      leaf = c;
    }
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(leaf, nullptr);
  parent->RenameTo("Left|Right");
  leaf->RenameTo("A|Button|B");
  ExpectLayoutConsistent(app, index);
  for (const ripper::VisibleEntry& entry : index.Visible()) {
    if (entry.control == leaf) {
      EXPECT_EQ(entry.control_id.substr(0, entry.path_offset), "A|Button|B|" +
                    std::string(uia::ControlTypeName(leaf->Type())) + "|");
    }
  }
}

}  // namespace
