// Generation-stamped visible-capture index (the rip/visit hot-path cache).
//
// CaptureVisible() and FindVisibleById() used to re-walk the whole
// accessibility tree and re-synthesize every XPath-like control id on every
// call — O(tree x string-build) per lookup, the dominant cost of both the
// ripper's DFS and the visit executor's path navigation. The index memoizes
// exactly one capture walk per gsim::Application UI-state generation (see
// Application::ui_generation()): while the generation is unchanged, captures
// are served from the cache and id lookups are one hash probe.
//
// The capture walk itself is also cheaper than the legacy one: ancestor paths
// are synthesized incrementally during the descent (O(1) amortized per
// element) instead of re-walking the parent chain per element (O(depth)).
//
// Layout (DESIGN.md §7): entries are in desktop pre-order, and each open
// window root's subtree is one contiguous slice of them, recorded per
// generation. Every entry also records where the ancestor-path field starts
// in its id. Together these let the visit executor score fuzzy candidates of
// the top window straight from the index (WindowEntries) — no tree walk, no
// id re-synthesis, no id re-parsing per candidate.
//
// Invalidation: any mutation that can change the visible tree or an id bumps
// the application generation (clicks, popups, window open/close, renames,
// scroll occlusion, reveal ticks, logical ticks); the next access rebuilds.
// Not thread-safe — an index is confined to its application's thread.
#ifndef SRC_RIPPER_VISIBLE_INDEX_H_
#define SRC_RIPPER_VISIBLE_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/gui/application.h"

namespace ripper {

// One visible (attached, on-screen) control and its synthesized identifier.
struct VisibleEntry {
  std::string control_id;
  gsim::Control* control = nullptr;
  // Where the ancestor-path field starts in control_id (just past the second
  // separator the index wrote, so a '|' inside a name cannot shift it). Set
  // by VisibleIndex; entries built elsewhere leave it 0.
  uint32_t path_offset = 0;

  std::string_view ancestor_path() const {
    return std::string_view(control_id).substr(path_offset);
  }
};

class VisibleIndex {
 public:
  explicit VisibleIndex(gsim::Application& app) : app_(&app) {}

  // Flushes the lifetime tallies (rebuilds / capture hits / lookups / cold
  // walks) onto the global MetricsRegistry as visible_index.* counters. The
  // hot path keeps plain (non-atomic) fields; the one-time flush here is what
  // keeps warm lookups free of clocks and atomics.
  ~VisibleIndex();

  // All visible controls in desktop pre-order (identical order and content to
  // the legacy uncached capture). `rebuilt`, when non-null, reports whether
  // this call performed an actual capture walk.
  const std::vector<VisibleEntry>& Visible(bool* rebuilt = nullptr);

  // First visible control (desktop pre-order) with this id, or nullptr.
  // Warm generation: one hash probe. Stale: an early-terminating tree walk
  // (no rebuild — a single cold lookup doesn't justify indexing a state the
  // next mutation will discard).
  gsim::Control* FindById(const std::string& control_id);

  // Like FindById, but on a stale generation performs the full rebuild and
  // probes the fresh index. Use when a capture of the same UI state follows
  // immediately (the rip loop's pre-click target lookup): the rebuild is paid
  // once and the capture is then served warm. `rebuilt`, when non-null,
  // reports whether this call performed the capture walk.
  gsim::Control* FindByIdEnsureFresh(const std::string& control_id,
                                     bool* rebuilt = nullptr);

  // First visible control (pre-order) with this id inside `window`'s subtree
  // (the visit executor searches only the topmost valid window), or nullptr.
  gsim::Control* FindByIdInWindow(const std::string& control_id,
                                  const gsim::Window* window);

  // The visible entries of `window`'s subtree, in pre-order: one contiguous
  // slice of Visible(). Empty when the window is not open or its root is
  // offscreen. Refreshes like Visible() but is not tallied as a capture — it
  // extends a lookup (FindByIdInWindow) of the same generation. The span is
  // valid until the next rebuild.
  std::span<const VisibleEntry> WindowEntries(const gsim::Window* window);

  // Drops the cache; the next access rebuilds regardless of generation.
  void Invalidate() { valid_ = false; }

 private:
  // Rebuilds if the cached generation is stale; returns true if it rebuilt.
  bool Refresh();

  gsim::Application* app_;
  bool valid_ = false;
  uint64_t cached_generation_ = 0;
  std::vector<VisibleEntry> entries_;
  // One slice of entries_ per open window (desktop child), bottom-most first.
  struct WindowRange {
    const uia::Element* root = nullptr;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  std::vector<WindowRange> windows_;
  // The slice of `window`'s root, or nullptr when it is not a desktop child.
  const WindowRange* RangeOf(const gsim::Window* window) const;
  // id -> positions in entries_ of the visible controls carrying it, in
  // pre-order (ids are not guaranteed globally unique: non-unique
  // AutomationIds, paper §5.7). Keys are views into entries_' id strings,
  // built in a second pass once entries_ is final — no per-rebuild key
  // copies.
  std::unordered_map<std::string_view, std::vector<uint32_t>> by_id_;
  // Lifetime tallies, flushed to the metrics registry by the destructor.
  // Plain fields on purpose: the warm lookup path must stay atomics-free.
  uint64_t rebuilds_ = 0;      // capture walks actually performed
  uint64_t capture_hits_ = 0;  // captures/lookups served from a warm generation
  uint64_t lookups_ = 0;       // FindById / FindByIdInWindow / EnsureFresh calls
  uint64_t cold_walks_ = 0;    // stale FindById early-exit walks (no rebuild)
};

}  // namespace ripper

#endif  // SRC_RIPPER_VISIBLE_INDEX_H_
