// Minimal discrete-event resource timelines used by the schedulers: track,
// per hardware unit, when it is busy and for how many cycles in total (for
// utilization and activity-based energy).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace matcha::sim {

/// One hardware unit's availability: when it next becomes free and how long
/// it has been busy. One per resource in schedule(dfg), one per pipeline
/// unit in the batch scheduler. Append-only: a claim
/// can never start before the last claim ends, which is exact for in-order
/// issue (one gate's DFG, or round-robin interleaved batches).
struct UnitTimeline {
  int64_t free_at = 0;
  int64_t busy = 0;

  /// Claim `cycles` starting no earlier than `ready`; returns completion.
  int64_t claim(int64_t ready, int64_t cycles) {
    const int64_t start = ready > free_at ? ready : free_at;
    free_at = start + cycles;
    busy += cycles;
    return free_at;
  }
};

/// A unit timeline that backfills: claims may land in earlier idle gaps.
/// Needed when work arrives out of program order -- the gate-DAG scheduler
/// dispatches whole gates one at a time, so a later gate's prologue must be
/// able to use the poly unit's idle window *behind* an earlier gate's final
/// key switch (a single free_at would serialize every gate on the chip-shared
/// units).
///
/// Contract: a claim starts at the earliest s >= ready such that
/// [s, s + cycles) overlaps no earlier claim (earliest fit); 0-cycle claims
/// occupy nothing. Busy spans are kept sorted and coalesced.
///
/// Cost: O(1) when `ready` is at or past the last span's start (the common
/// case -- a schedule mostly grows at its tail). Otherwise an O(log n) binary
/// search for `ready` and, when the span after it is in the way, a scan of a
/// per-block index of gap bounds, O(kBlock + n / kBlock), to the first gap
/// that fits. A claim that joins a neighbour only shrinks a gap, so it
/// leaves the index alone; a claim that splits a gap or fills one exactly
/// shifts the gap indices after it, which costs the span-vector move plus
/// one gap read per later block.
class BackfillTimeline {
 public:
  /// Claim `cycles` at the earliest start >= `ready`; returns completion.
  int64_t claim(int64_t ready, int64_t cycles) {
    busy_ += cycles;
    if (cycles == 0) return ready;
    if (spans_.empty() || ready >= spans_.back().start) {
      // Nothing starts after `ready`: the claim goes at the tail.
      const int64_t start =
          spans_.empty() ? ready : std::max(ready, spans_.back().end);
      append(Span{start, start + cycles});
      return start + cycles;
    }
    // First span starting after `ready`; its predecessor may cover `ready`.
    size_t i = static_cast<size_t>(
        std::upper_bound(spans_.begin(), spans_.end(), ready,
                         [](int64_t t, const Span& s) { return t < s.start; }) -
        spans_.begin());
    int64_t start = ready;
    if (i > 0 && spans_[i - 1].end > start) start = spans_[i - 1].end;
    if (i < spans_.size() && spans_[i].start < start + cycles) {
      // Span i is in the way: the claim starts right after the first span
      // at or past i whose following gap fits it (or after the last span).
      const size_t k = first_fit(i, cycles);
      start = spans_[k].end;
      i = k + 1;
    }
    insert(Span{start, start + cycles}, i);
    return start + cycles;
  }

  int64_t busy() const { return busy_; }

 private:
  struct Span {
    int64_t start, end;
  };
  /// Gaps per index block. Gap k is the idle window between spans k and k+1.
  static constexpr size_t kBlock = 32;

  size_t gaps() const { return spans_.empty() ? 0 : spans_.size() - 1; }
  int64_t gap(size_t k) const { return spans_[k + 1].start - spans_[k].end; }

  /// Smallest k >= from with gap(k) >= cycles, or the last span's index.
  /// A block scanned in full without a fit gets its exact bound back.
  size_t first_fit(size_t from, int64_t cycles) {
    const size_t n = gaps();
    for (size_t b = from / kBlock; b < bound_.size(); ++b) {
      if (bound_[b] < cycles) continue;
      const size_t lo = std::max(from, b * kBlock);
      const size_t end = std::min(n, (b + 1) * kBlock);
      int64_t largest = 0;
      for (size_t k = lo; k < end; ++k) {
        if (gap(k) >= cycles) return k;
        largest = std::max(largest, gap(k));
      }
      if (lo == b * kBlock) bound_[b] = largest;
    }
    return n;
  }

  /// Gap indices from block `b` on moved by one: each block bounds what it
  /// held plus the one gap that moved in across its edge (`edge` = the gap's
  /// offset in the block: 0 after an insert, kBlock - 1 after an erase).
  void shift_bounds(size_t b, size_t edge) {
    const size_t n = gaps();
    bound_.resize((n + kBlock - 1) / kBlock, 0);
    for (; b < bound_.size(); ++b) {
      const size_t k = b * kBlock + edge;
      if (k < n) bound_[b] = std::max(bound_[b], gap(k));
    }
  }

  void append(Span s) {
    if (!spans_.empty()) {
      if (spans_.back().end == s.start) {
        spans_.back().end = s.end;
        return;
      }
      const int64_t g = s.start - spans_.back().end;
      const size_t b = gaps() / kBlock;
      if (b == bound_.size()) {
        bound_.push_back(g);
      } else {
        bound_[b] = std::max(bound_[b], g);
      }
    }
    spans_.push_back(s);
  }

  void insert(Span s, size_t at) {
    if (at == spans_.size()) return append(s);
    // Coalesce with abutting neighbours to keep the list short.
    const bool join_prev = at > 0 && spans_[at - 1].end == s.start;
    const bool join_next = spans_[at].start == s.end;
    if (join_prev && join_next) {
      // Gap at-1 is filled exactly: the two spans merge into one.
      spans_[at - 1].end = spans_[at].end;
      spans_.erase(spans_.begin() + static_cast<ptrdiff_t>(at));
      shift_bounds((at - 1) / kBlock, kBlock - 1);
    } else if (join_prev) {
      spans_[at - 1].end = s.end;
    } else if (join_next) {
      spans_[at].start = s.start;
    } else {
      // Gap at-1 splits in two (at == 0 carves a new gap 0 from the lead).
      spans_.insert(spans_.begin() + static_cast<ptrdiff_t>(at), s);
      shift_bounds(at > 0 ? (at - 1) / kBlock : 0, 0);
    }
  }

  std::vector<Span> spans_;
  /// Per block of kBlock gaps: an upper bound on its largest gap.
  std::vector<int64_t> bound_;
  int64_t busy_ = 0;
};

} // namespace matcha::sim
