#include "src/ripper/visible_index.h"

#include <functional>

#include "src/ripper/identifier.h"
#include "src/support/metrics.h"
#include "src/uia/element.h"

namespace ripper {
namespace {

// Mirrors identifier.cc's Primary(): AutomationId > Name > "[Unnamed]".
const std::string& PrimaryOf(const std::string& automation_id, const std::string& name) {
  static const std::string kUnnamed = "[Unnamed]";
  if (!automation_id.empty()) {
    return automation_id;
  }
  if (!name.empty()) {
    return name;
  }
  return kUnnamed;
}

}  // namespace

VisibleIndex::~VisibleIndex() {
  // One registry touch per index lifetime; zero tallies stay off the registry
  // so unused indexes don't mint counters.
  if (rebuilds_ != 0) {
    support::CountMetric("visible_index.rebuilds", rebuilds_);
  }
  if (capture_hits_ != 0) {
    support::CountMetric("visible_index.capture_hits", capture_hits_);
  }
  if (lookups_ != 0) {
    support::CountMetric("visible_index.lookups", lookups_);
  }
  if (cold_walks_ != 0) {
    support::CountMetric("visible_index.cold_walks", cold_walks_);
  }
}

bool VisibleIndex::Refresh() {
  const uint64_t generation = app_->ui_generation();
  if (valid_ && generation == cached_generation_) {
    return false;
  }
  // by_id_ holds views into entries_; drop it before touching the strings.
  by_id_.clear();
  const size_t last_size = entries_.size();
  entries_.clear();
  entries_.reserve(last_size);
  windows_.clear();

  // One pre-order walk with incremental ancestor-path synthesis. The visit
  // order, pruning and id strings are identical to the legacy
  // Walk + SynthesizeControlId capture; only the cost differs.
  std::function<void(uia::Element&, const std::string&)> descend =
      [&](uia::Element& e, const std::string& ancestor_path) {
        if (e.IsOffscreen()) {
          return;  // prune, exactly as the legacy capture walk does
        }
        std::string name = e.Name();
        const std::string automation_id = e.AutomationId();
        const std::string& primary = PrimaryOf(automation_id, name);
        const std::string_view type = uia::ControlTypeName(e.Type());
        VisibleEntry entry;
        entry.control_id.reserve(primary.size() + type.size() + 2 + ancestor_path.size());
        entry.control_id.append(primary).append(1, '|').append(type).append(1, '|');
        entry.path_offset = static_cast<uint32_t>(entry.control_id.size());
        entry.control_id += ancestor_path;
        entry.control = static_cast<gsim::Control*>(&e);
        entries_.push_back(std::move(entry));
        // A child whose public Parent() is null (floating shared surfaces)
        // restarts its path at "" — matching uia::AncestorPath, which stops
        // at the first null parent.
        std::string child_path;
        bool child_path_built = false;
        for (uia::Element* child : e.Children()) {
          const std::string* path = &child_path;
          if (child->Parent() == nullptr) {
            static const std::string kEmpty;
            path = &kEmpty;
          } else if (!child_path_built) {
            child_path = ancestor_path;
            if (!child_path.empty()) {
              child_path += '/';
            }
            child_path += name.empty() ? "[Unnamed]" : name;
            child_path_built = true;
          }
          descend(*child, *path);
        }
      };
  // The synthetic desktop root is not an entry; its children are the open
  // window roots (null Parent(), so their paths start empty), and each one's
  // subtree lands as one contiguous slice of entries_.
  for (uia::Element* window_root : app_->AccessibilityRoot().Children()) {
    const auto begin = static_cast<uint32_t>(entries_.size());
    descend(*window_root, "");
    windows_.push_back({window_root, begin, static_cast<uint32_t>(entries_.size())});
  }

  // Second pass: entries_ no longer reallocates, so views into its id
  // strings are stable for the lifetime of this generation.
  by_id_.reserve(entries_.size());
  for (uint32_t i = 0; i < entries_.size(); ++i) {
    by_id_[std::string_view(entries_[i].control_id)].push_back(i);
  }

  valid_ = true;
  cached_generation_ = generation;
  ++rebuilds_;
  return true;
}

const VisibleIndex::WindowRange* VisibleIndex::RangeOf(const gsim::Window* window) const {
  for (const WindowRange& range : windows_) {
    if (range.root == &window->root()) {
      return &range;
    }
  }
  return nullptr;
}

const std::vector<VisibleEntry>& VisibleIndex::Visible(bool* rebuilt) {
  const bool did = Refresh();
  if (!did) {
    ++capture_hits_;
  }
  if (rebuilt != nullptr) {
    *rebuilt = did;
  }
  return entries_;
}

gsim::Control* VisibleIndex::FindById(const std::string& control_id) {
  ++lookups_;
  const uint64_t generation = app_->ui_generation();
  if (valid_ && generation == cached_generation_) {
    ++capture_hits_;
    auto it = by_id_.find(std::string_view(control_id));
    if (it == by_id_.end() || it->second.empty()) {
      return nullptr;
    }
    return entries_[it->second.front()].control;
  }
  // Cold single lookup: an early-terminating walk beats paying for a full
  // rebuild that the next mutation would discard anyway (replay-heavy rip
  // loops look up exactly once per UI state). The cache stays stale; the
  // next capture rebuilds it.
  ++cold_walks_;
  gsim::Control* found = nullptr;
  std::function<void(uia::Element&, const std::string&)> descend =
      [&](uia::Element& e, const std::string& ancestor_path) {
        if (found != nullptr || e.IsOffscreen()) {
          return;
        }
        std::string name = e.Name();
        if (e.RuntimeId() != 0) {
          std::string id = PrimaryOf(e.AutomationId(), name) + "|" +
                           std::string(uia::ControlTypeName(e.Type())) + "|" + ancestor_path;
          if (id == control_id) {
            found = static_cast<gsim::Control*>(&e);
            return;
          }
        }
        std::string child_path;
        bool child_path_built = false;
        for (uia::Element* child : e.Children()) {
          if (found != nullptr) {
            return;
          }
          const std::string* path = &child_path;
          if (child->Parent() == nullptr) {
            static const std::string kEmpty;
            path = &kEmpty;
          } else if (!child_path_built) {
            child_path = ancestor_path;
            if (!child_path.empty()) {
              child_path += '/';
            }
            child_path += name.empty() ? "[Unnamed]" : name;
            child_path_built = true;
          }
          descend(*child, *path);
        }
      };
  descend(app_->AccessibilityRoot(), "");
  return found;
}

gsim::Control* VisibleIndex::FindByIdEnsureFresh(const std::string& control_id,
                                                 bool* rebuilt) {
  const bool did = Refresh();
  if (!did) {
    ++capture_hits_;
  }
  if (rebuilt != nullptr) {
    *rebuilt = did;
  }
  ++lookups_;
  auto it = by_id_.find(std::string_view(control_id));
  if (it == by_id_.end() || it->second.empty()) {
    return nullptr;
  }
  return entries_[it->second.front()].control;
}

gsim::Control* VisibleIndex::FindByIdInWindow(const std::string& control_id,
                                              const gsim::Window* window) {
  if (!Refresh()) {
    ++capture_hits_;
  }
  ++lookups_;
  auto it = by_id_.find(std::string_view(control_id));
  const WindowRange* range = RangeOf(window);
  if (it == by_id_.end() || range == nullptr) {
    return nullptr;
  }
  for (uint32_t i : it->second) {
    if (i >= range->begin && i < range->end) {
      return entries_[i].control;
    }
  }
  return nullptr;
}

std::span<const VisibleEntry> VisibleIndex::WindowEntries(const gsim::Window* window) {
  Refresh();
  const WindowRange* range = RangeOf(window);
  if (range == nullptr) {
    return {};
  }
  return std::span<const VisibleEntry>(entries_).subspan(range->begin,
                                                          range->end - range->begin);
}

}  // namespace ripper
