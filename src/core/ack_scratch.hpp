// Re-entrant staging buffer for batched control-plane apply.
//
// Every Stabilizer path that feeds the frontier engines — a send's origin
// rule, a DATA frame's receipt, an ACKBATCH/REPORTBATCH frame, a pipeline
// drain — stages AckUpdates tagged with their origin stream, then applies
// them as one FrontierEngine::on_ack_batch() per origin. Monitors fired by
// that apply may re-enter (send(), report_stability(), a nested frame) and
// stage their own updates. Instead of fresh vectors per call, each call
// stages above the size it found (mark()) and truncates back to it when done
// (release()), like a call stack. A nested push may reallocate, so callers
// keep offsets, never pointers or spans, across callbacks. Once warmed up to
// the deepest nesting times the largest frame, staging allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "control/frontier_engine.hpp"

namespace stab {

class AckScratch {
 public:
  /// Start of a new stack frame: pass it to apply() and release().
  size_t mark() const { return updates_.size(); }

  void push(NodeId origin, const AckUpdate& update) {
    updates_.push_back(update);
    origins_.push_back(origin);
  }

  /// Staged update `i` (an absolute position, at or above some mark()).
  const AckUpdate& update(size_t i) const { return updates_[i]; }
  NodeId origin(size_t i) const { return origins_[i]; }

  /// Hands the updates staged since `base` to `apply(origin, span)`, one
  /// call per origin: ascending origin order, staging order within an
  /// origin. `apply` may re-enter and stage (and apply and release) above
  /// this frame. A span stays valid only until the first re-entrant push,
  /// which FrontierEngine::on_ack_batch() honours by reading its input
  /// before running any callback.
  template <class Apply>
  void apply(size_t base, Apply&& apply) {
    size_t lo = base;
    size_t hi = updates_.size();
    if (!std::is_sorted(origins_.begin() + lo, origins_.begin() + hi)) {
      // Stable counting sort by origin into a second region above the
      // first; both are released together.
      const NodeId max_origin =
          *std::max_element(origins_.begin() + lo, origins_.begin() + hi);
      counts_.assign(static_cast<size_t>(max_origin) + 2, 0);
      for (size_t i = lo; i < hi; ++i) ++counts_[origins_[i] + 1];
      for (size_t o = 1; o < counts_.size(); ++o) counts_[o] += counts_[o - 1];
      updates_.resize(hi + (hi - lo));
      origins_.resize(hi + (hi - lo));
      for (size_t i = lo; i < hi; ++i) {
        const size_t dst = hi + counts_[origins_[i]]++;
        updates_[dst] = updates_[i];
        origins_[dst] = origins_[i];
      }
      lo = hi;
      hi = updates_.size();
    }
    while (lo < hi) {
      const NodeId origin = origins_[lo];
      size_t run = lo + 1;
      while (run < hi && origins_[run] == origin) ++run;
      apply(origin, std::span<const AckUpdate>(updates_.data() + lo, run - lo));
      lo = run;
    }
  }

  /// Pops the frame that started at `base`.
  void release(size_t base) {
    updates_.resize(base);
    origins_.resize(base);
  }

 private:
  std::vector<AckUpdate> updates_;
  std::vector<NodeId> origins_;
  std::vector<size_t> counts_;  // counting-sort buckets; never live across apply
};

}  // namespace stab
