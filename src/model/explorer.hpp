#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/scope.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"
#include "net/types.hpp"

namespace quora::model {

/// One transition along an explored path. Identified by *content*
/// (descriptor fields + occurrence rank), never by queue sequence
/// number: a recorded trace must replay against a freshly built cluster,
/// and keep replaying as minimization drops earlier steps — both of
/// which renumber every event.
struct Choice {
  enum class Kind : std::uint8_t { kEvent = 0, kSubmit = 1, kFault = 2 };
  Kind kind = Kind::kEvent;
  /// kSubmit / kFault: position in the scope's access / fault alphabet.
  std::uint32_t index = 0;
  // kEvent descriptor: the enabled pending event to fire.
  msg::Cluster::ModelEventKind event_kind =
      msg::Cluster::ModelEventKind::kOther;
  net::SiteId target = 0;
  std::uint32_t link = 0;
  std::uint64_t request = 0;
  int phase = 0;
  msg::Message message{};  // deliveries only
  /// Rank among enabled events with an identical descriptor (enumeration
  /// order), disambiguating true duplicates.
  std::uint32_t occurrence = 0;

  /// One-line human rendering for counterexample listings.
  std::string describe(const Scope& scope) const;
};

/// A model-level property violation (beyond `msg::check_safety`):
/// `qr-monotonicity` (a site's stored assignment version decreased),
/// `quorum-intersection` (an installed assignment fails Gifford's
/// conditions), or `grant-without-quorum` (a granted access backed by
/// fewer votes than its assignment requires).
struct PropertyViolation {
  std::string code;
  std::string message;
};

/// A counterexample: what went wrong, and the schedule that gets there.
struct Violation {
  msg::SafetyReport safety;                   // check_safety findings
  std::vector<PropertyViolation> properties;  // model-level findings
  std::vector<Choice> trace;                  // schedule from the initial state
  /// Sorted, deduplicated violation identity ("which bug"): safety slugs
  /// plus property codes. Minimization preserves this set.
  std::vector<std::string> codes() const;
};

struct Stats {
  std::uint64_t explored = 0;      // states expanded (DFS entries)
  std::uint64_t transitions = 0;   // transitions fired
  std::uint64_t unique_states = 0; // distinct fingerprints seen
  std::uint64_t visited_hits = 0;  // revisits pruned by the visited set
  std::uint64_t sleep_pruned = 0;  // transitions pruned by DPOR sleep sets
  std::uint64_t max_depth_seen = 0;
  bool depth_capped = false;       // some path hit the depth bound
  bool state_capped = false;       // the state budget ran out
};

struct Options {
  /// Sleep-set partial-order reduction. Off = every interleaving (the
  /// cross-validation mode behind `quora_model --no-dpor`).
  bool dpor = true;
};

/// Bounded explicit-state exploration of a `.model` scope against the
/// real `msg::Cluster` protocol code. Depth-first over every admissible
/// schedule (per-direction FIFO is the only delivery-order constraint),
/// snapshotting the cluster at each branch point by copy-assignment into
/// the cluster its DFS depth keeps; at every state it runs
/// `msg::check_safety` plus the model-level properties and stops at the
/// first violation. Everything a state needs lives in per-depth frames
/// and explorer members that keep their capacity, so exploration stops
/// allocating once they are warm, and a second run() allocates nothing.
///
/// Reduction: sleep sets over a conservative independence relation —
/// deliveries/timers at distinct sites commute; submissions and faults
/// are dependent with everything. The visited set stores 128-bit
/// fingerprints (collision caveat: see docs/MODEL_CHECKING.md) in a flat
/// open-addressing table and, with DPOR on, applies the covering rule — a
/// revisit is pruned only when a cached exploration already covered at
/// least the transitions the current one would try.
///
/// The scope must outlive the explorer (the cluster borrows its
/// topology).
class Explorer {
public:
  explicit Explorer(const Scope& scope, Options opt = {});

  /// Explores until the first violation, exhaustion, or a budget cap.
  /// The first call builds the initial cluster; later calls reuse it.
  std::optional<Violation> run();
  const Stats& stats() const noexcept { return stats_; }

  /// Replays `trace` on a fresh cluster, checking after every step.
  /// Returns the violation at the first violating state (with `trace`
  /// truncated there), or nullopt if the schedule no longer applies or
  /// never violates.
  std::optional<Violation> replay(const std::vector<Choice>& trace) const;

  /// Greedy counterexample minimization: repeatedly drop any single step
  /// whose removal still replays to a violation covering the original
  /// code set, then truncate at the first violating state.
  std::vector<Choice> minimize(const Violation& seed) const;

private:
  struct Transition {
    Choice choice;
    std::uint64_t seq = 0;  // kEvent: live handle in the current state
    std::uint64_t key = 0;  // sleep-set / covering identity (content hash)
    net::SiteId site = 0;   // dependence site for kEvent
    bool global = false;    // kSubmit / kFault: dependent with everything
  };
  struct SleepEntry {
    std::uint64_t key = 0;
    net::SiteId site = 0;
    bool global = false;
  };
  /// The state expanded at one DFS depth plus that depth's scratch,
  /// reused by every state expanded there. A child is copy-assigned into
  /// the next depth's `state`, which keeps that cluster's capacity: once
  /// the frames have grown, a state allocates nothing.
  struct Frame {
    std::optional<msg::Cluster> state;     // frames_[0]: the initial state
    std::vector<SleepEntry> sleep;         // grows as siblings finish
    std::vector<std::uint64_t> sleep_keys; // `sleep`'s keys, sorted
    std::vector<Transition> todo;          // awake enabled transitions
    std::vector<msg::Cluster::ModelEvent> events;  // todo's source
    std::vector<std::uint64_t> qr;         // stored QR versions here
  };

  /// The visited set: an open-addressing (linear-probing) table keyed by
  /// the full 128-bit fingerprint. Each slot heads a chain of the sorted
  /// sleep-key runs its state was explored under; all runs live in one
  /// arena of words, each led by a header packing its length and the
  /// arena offset of the next run in the chain.
  class VisitedTable {
  public:
    using Key = std::array<std::uint64_t, 2>;

    VisitedTable() { clear(); }
    /// Empties the table, keeping the size it has grown to.
    void clear();
    /// The slot holding `key`, or the empty slot where it would go.
    std::size_t find(const Key& key) const;
    bool occupied(std::size_t slot) const { return slots_[slot].head != 0; }
    /// The covering rule: true when some run recorded at `slot` is a
    /// subset of the sorted `keys`.
    bool covered(std::size_t slot, std::span<const std::uint64_t> keys) const;
    /// Chains the sorted `keys` onto `slot`, claiming the slot for `key`
    /// if it is empty. Invalidates slot indices (the table may grow).
    void record(std::size_t slot, const Key& key,
                std::span<const std::uint64_t> keys);

  private:
    struct Slot {
      Key key{};
      std::uint64_t head = 0;  // arena offset of the newest run; 0 = empty
    };
    void grow();

    std::vector<Slot> slots_;  // power-of-two size, at most half full
    std::size_t size_ = 0;
    std::vector<std::uint64_t> runs_;  // arena; offset 0 is never a run
  };

  msg::Cluster make_cluster() const;
  /// Fills `out` with the transitions enabled in `c`, listing its events
  /// through the scratch vector `events`.
  void enabled_transitions(const msg::Cluster& c, std::uint32_t submitted,
                           std::uint32_t faulted,
                           std::vector<msg::Cluster::ModelEvent>& events,
                           std::vector<Transition>& out) const;
  void apply(msg::Cluster& c, const Transition& t, std::uint32_t& submitted,
             std::uint32_t& faulted) const;
  std::optional<Violation> check_state(
      const msg::Cluster& c, const std::vector<std::uint64_t>& prev_qr,
      const std::vector<std::uint64_t>& cur_qr,
      msg::SafetyScratch& scratch) const;
  void stored_qr_versions(const msg::Cluster& c,
                          std::vector<std::uint64_t>& out) const;

  /// Expands frames_[depth].state with the sleep set the caller left in
  /// frames_[depth]; `path_` holds the schedule that reached it.
  bool dfs(std::uint32_t submitted, std::uint32_t faulted,
           std::uint64_t depth, const std::vector<std::uint64_t>& prev_qr);

  const Scope* scope_;
  Options opt_;
  Stats stats_;
  std::optional<Violation> found_;
  VisitedTable visited_;
  std::deque<Frame> frames_;  // by depth; deque keeps references stable
  std::vector<Choice> path_;  // schedule from the initial state
  std::vector<std::uint64_t> words_;  // canonical stream of the state
  msg::SafetyScratch safety_scratch_;
};

} // namespace quora::model
