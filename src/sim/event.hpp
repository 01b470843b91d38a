#pragma once

#include <cstdint>
#include <vector>

#include "core/analysis_annotations.hpp"

namespace quora::sim {

/// The five event kinds of the paper's model (§5.2): component failures and
/// recoveries plus data access requests. All events are instantaneous; no
/// component changes state while an access is processing (guaranteed here
/// by construction — each event is handled atomically).
enum class EventKind : std::uint8_t {
  kSiteFail,
  kSiteRecover,
  kLinkFail,
  kLinkRecover,
  kAccess,
};

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;  // insertion order; deterministic tie-break
  EventKind kind = EventKind::kAccess;
  std::uint32_t index = 0;  // site or link id; unused for kAccess
};

/// Min-heap of entries ordered by (time, seq), for any `Entry` with a
/// `double time` and a `std::uint64_t seq` member. Callers keep the keys
/// unique (a per-queue sequence counter), which makes the pop order a
/// total order: simulations are bitwise reproducible.
///
/// Implemented as an implicit 4-ary heap rather than std::priority_queue's
/// binary one: sift-downs touch a quarter as many levels and the four
/// children share a cache line, which matters because pop() dominates the
/// event loops. Because every (time, seq) key is unique the pop order —
/// and therefore every simulation trace — is identical to the binary
/// heap's, independent of arity. Entries should stay small (a key plus a
/// handle); `msg::Cluster` keeps its large events in a slab and heaps
/// 24-byte (time, seq, slot) keys.
template <typename Entry>
class KeyedHeap4 {
public:
  QUORA_HOT_PATH void push(const Entry& e) {
    // quora-lint: allow(L006) amortized growth: every pop hands back a slot, so steady state never reallocates; quora_bench --alloc-check enforces it
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }
  std::size_t capacity() const noexcept { return heap_.capacity(); }
  void reserve(std::size_t n) { heap_.reserve(n); }

  /// The earliest entry; the heap must not be empty.
  const Entry& top() const noexcept { return heap_.front(); }

  QUORA_HOT_PATH Entry pop() {
    Entry e = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_hole_down(last);
    return e;
  }

  /// Drop every entry and release the backing store.
  void clear() { std::vector<Entry>().swap(heap_); }

private:
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Same predicate without short-circuiting: both legs evaluate, so the
  /// compiler can lower the descent's child selection to flag ops + cmov
  /// instead of data-dependent branches (random keys mispredict ~50%).
  static bool earlier_nb(const Entry& a, const Entry& b) noexcept {
    return static_cast<int>(a.time < b.time) |
           (static_cast<int>(a.time == b.time) &
            static_cast<int>(a.seq < b.seq));
  }

  void sift_up(std::size_t i) {
    Entry* const h = heap_.data();
    const Entry e = h[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  /// Root removal, libstdc++-style: sink the root hole to a leaf choosing
  /// the min child per level (no compare against `e` on the way down),
  /// drop the former last element `e` into the leaf hole, and sift it
  /// back up. On random keys `e` rarely climbs, so this does strictly
  /// fewer unpredictable comparisons than the classic early-exit descent.
  void sift_hole_down(const Entry e) {
    Entry* const h = heap_.data();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    std::size_t first;
    while ((first = (i << 2) + 1) + 4 <= n) {
      // Tournament-min over the four children; branchless by construction.
      const std::size_t lo = first + earlier_nb(h[first + 1], h[first]);
      const std::size_t hi = first + 2 + earlier_nb(h[first + 3], h[first + 2]);
      const std::size_t best = earlier_nb(h[hi], h[lo]) ? hi : lo;
      h[i] = h[best];
      i = best;
    }
    if (first < n) {  // partial bottom level
      std::size_t best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
      h[i] = h[best];
      i = best;
    }
    h[i] = e;
    sift_up(i);
  }

  std::vector<Entry> heap_;
};

/// The simulator's event queue: a KeyedHeap4 of events stamped with an
/// insertion sequence number as the tie-break.
class EventQueue {
public:
  QUORA_HOT_PATH void push(double time, EventKind kind, std::uint32_t index) {
    heap_.push(Event{time, next_seq_++, kind, index});
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Backing-store capacity, exposed so tests can assert that clear()
  /// genuinely released memory.
  std::size_t capacity() const noexcept { return heap_.capacity(); }

  QUORA_HOT_PATH Event pop() { return heap_.pop(); }

  /// Reset to a freshly-constructed state: the heap's capacity is released
  /// (not retained) so a cleared queue holds no memory, and the sequence
  /// counter restarts so replays from a cleared queue stay deterministic.
  void clear() {
    heap_.clear();
    next_seq_ = 0;
  }

private:
  KeyedHeap4<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

} // namespace quora::sim
