// Reference control locate for differential checks: the visit executor's
// original top-window tree walk, kept outside the library as an oracle.
//
// It walks the live accessibility tree of the topmost window, pruning
// offscreen subtrees, and re-synthesizes every visible control's id
// (SynthesizeControlId + AncestorPath, O(depth) each). An exact id match
// wins; otherwise the best same-type candidate by
//   0.8 x DecorationAwareScore(model name, screen name)
//   + 0.2 x TokenSetRatio(screen ancestor path, model ancestor path)
// is returned when it reaches the threshold (first maximum in pre-order).
//
// VisitExecutor::LocateControl must return the same control for every
// (UI state, node); tests/locate_test.cc and bench/bench_micro_capture.cc
// hold it to that.
#ifndef TESTS_LOCATE_ORACLE_H_
#define TESTS_LOCATE_ORACLE_H_

#include "src/gui/application.h"
#include "src/ripper/identifier.h"
#include "src/text/similarity.h"
#include "src/topology/nav_graph.h"
#include "src/uia/tree.h"

namespace locate_oracle {

struct WalkResult {
  gsim::Control* exact = nullptr;
  gsim::Control* best_fuzzy = nullptr;  // only scored when `exact` is null
  double best_score = 0.0;
};

inline WalkResult Walk(gsim::Application& app, const topo::NodeInfo& info) {
  WalkResult result;
  gsim::Window* top = app.TopWindow();
  if (top == nullptr) {
    return result;
  }
  uia::Walk(top->root(), [&](uia::Element& e, int) {
    if (result.exact != nullptr) {
      return false;
    }
    if (e.IsOffscreen()) {
      return false;
    }
    if (e.RuntimeId() == 0) {
      return true;
    }
    if (ripper::SynthesizeControlId(e) == info.control_id) {
      result.exact = static_cast<gsim::Control*>(&e);
      return false;
    }
    if (e.Type() == info.type) {
      const ripper::ParsedControlId parsed = ripper::ParseControlId(info.control_id);
      const double score =
          0.8 * textutil::DecorationAwareScore(info.name, e.Name()) +
          0.2 * textutil::TokenSetRatio(uia::AncestorPath(e), parsed.ancestor_path);
      if (score > result.best_score) {
        result.best_score = score;
        result.best_fuzzy = static_cast<gsim::Control*>(&e);
      }
    }
    return true;
  });
  return result;
}

// The walk's verdict under `fuzzy_threshold`: exact, else the accepted fuzzy
// candidate, else nullptr.
inline gsim::Control* Locate(gsim::Application& app, const topo::NodeInfo& info,
                             double fuzzy_threshold) {
  const WalkResult result = Walk(app, info);
  if (result.exact != nullptr) {
    return result.exact;
  }
  if (result.best_fuzzy != nullptr && result.best_score >= fuzzy_threshold) {
    return result.best_fuzzy;
  }
  return nullptr;
}

}  // namespace locate_oracle

#endif  // TESTS_LOCATE_ORACLE_H_
