#include "model/explorer.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "quorum/quorum_spec.hpp"

namespace quora::model {
namespace {

using msg::Cluster;

const char* message_kind_name(msg::Message::Kind k) {
  switch (k) {
    case msg::Message::Kind::kVoteRequest: return "vote-request";
    case msg::Message::Kind::kVoteReply: return "vote-reply";
    case msg::Message::Kind::kVoteDeny: return "vote-deny";
    case msg::Message::Kind::kCommitRequest: return "commit-request";
    case msg::Message::Kind::kCommitAck: return "commit-ack";
    case msg::Message::Kind::kAbort: return "abort";
  }
  return "?";
}

const char* event_kind_name(Cluster::ModelEventKind k) {
  switch (k) {
    case Cluster::ModelEventKind::kDelivery: return "deliver";
    case Cluster::ModelEventKind::kTimer: return "timer";
    case Cluster::ModelEventKind::kRetry: return "retry";
    case Cluster::ModelEventKind::kOther: return "event";
  }
  return "?";
}

/// Renders a scope fault action for counterexample listings.
std::string action_brief(const fault::Action& a) {
  using Kind = fault::Action::Kind;
  switch (a.kind) {
    case Kind::kSiteDown: return "site " + std::to_string(a.site) + " down";
    case Kind::kSiteUp: return "site " + std::to_string(a.site) + " up";
    case Kind::kLinkDown: return "link " + std::to_string(a.link) + " down";
    case Kind::kLinkUp: return "link " + std::to_string(a.link) + " up";
    case Kind::kPartition: return "partition";
    case Kind::kHeal: return "heal";
    case Kind::kHealLinks: return "heal-links";
    case Kind::kReassign:
      return "reassign " + std::to_string(a.next.q_r) + " " +
             std::to_string(a.next.q_w) + " from " + std::to_string(a.site);
    case Kind::kDomainDown: return "domain " + a.domain + " down";
    case Kind::kDomainUp: return "domain " + a.domain + " up";
    case Kind::kOneWayDown:
      return "oneway " + std::to_string(a.site) + " " +
             std::to_string(a.site_b) + " down";
    case Kind::kOneWayUp:
      return "oneway " + std::to_string(a.site) + " " +
             std::to_string(a.site_b) + " up";
    default: return "action";
  }
}

/// True when the recorded descriptor names this enabled event.
bool same_descriptor(const Choice& c, const Cluster::ModelEvent& e) {
  if (c.event_kind != e.kind || c.target != e.target || c.link != e.index ||
      c.request != e.request || c.phase != e.phase) {
    return false;
  }
  if (e.kind != Cluster::ModelEventKind::kDelivery) return true;
  const msg::Message& a = c.message;
  const msg::Message& b = e.message;
  return a.kind == b.kind && a.is_write == b.is_write &&
         a.request == b.request && a.coordinator == b.coordinator &&
         a.sender == b.sender && a.replier == b.replier &&
         a.votes == b.votes && a.version == b.version && a.value == b.value &&
         a.qr_version == b.qr_version && a.qr_r == b.qr_r && a.qr_w == b.qr_w;
}

std::uint64_t descriptor_key(const Choice& c) {
  const msg::Message& m = c.message;
  const std::array<std::uint64_t, 15> words = {
      static_cast<std::uint64_t>(c.kind),
      c.index,
      static_cast<std::uint64_t>(c.event_kind),
      c.target,
      c.link,
      c.request,
      static_cast<std::uint64_t>(c.phase),
      c.occurrence,
      // Deliveries only:
      static_cast<std::uint64_t>(m.kind),
      m.is_write ? 1u : 0u,
      m.request,
      m.sender,
      m.replier,
      m.version,
      m.qr_version};
  const bool delivery = c.event_kind == Cluster::ModelEventKind::kDelivery;
  return Cluster::model_hash(std::span(words).first(delivery ? 15 : 8))[0];
}

} // namespace

std::string Choice::describe(const Scope& scope) const {
  switch (kind) {
    case Kind::kSubmit: {
      const fault::Action& a = scope.accesses[index];
      return std::string("submit ") + (a.is_read ? "read" : "write") +
             " at site " + std::to_string(a.site);
    }
    case Kind::kFault: {
      std::string out = "fault:";
      for (const fault::Action& a : scope.faults[index]) {
        out += " " + action_brief(a) + ";";
      }
      out.pop_back();
      return out;
    }
    case Kind::kEvent:
      break;
  }
  std::string out = event_kind_name(event_kind);
  if (event_kind == Cluster::ModelEventKind::kDelivery) {
    out += std::string(" ") + message_kind_name(message.kind) + " req " +
           std::to_string(message.request) + " -> site " +
           std::to_string(target) + " (link " + std::to_string(link) + ")";
  } else {
    out += " site " + std::to_string(target) + " req " +
           std::to_string(request) + " phase " + std::to_string(phase);
  }
  if (occurrence != 0) out += " #" + std::to_string(occurrence);
  return out;
}

std::vector<std::string> Violation::codes() const {
  std::vector<std::string> out;
  for (const msg::SafetyViolation& v : safety.violations) {
    out.push_back(msg::invariant_slug(v.code));
  }
  for (const PropertyViolation& p : properties) out.push_back(p.code);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Explorer::Explorer(const Scope& scope, Options opt)
    : scope_(&scope), opt_(opt) {
  QUORA_PRECONDITION(scope.chaos.system.has_value(),
                     "scope must carry a parsed system");
}

msg::Cluster Explorer::make_cluster() const {
  const net::Topology& topo = scope_->chaos.system->topology;
  Cluster::Params params;
  params.model_mode = true;
  params.spec = scope_->chaos.has_quorum
                    ? scope_->chaos.quorum
                    : quorum::majority(topo.total_votes());
  for (const std::string& m : scope_->chaos.mutations) {
    if (m == "accept-stale-qr") params.mutations.accept_stale_qr = true;
    if (m == "skip-crash-cleanup") params.mutations.skip_crash_cleanup = true;
  }
  return Cluster(topo, params, /*seed=*/1);
}

void Explorer::enabled_transitions(
    const msg::Cluster& c, std::uint32_t submitted, std::uint32_t faulted,
    std::vector<Cluster::ModelEvent>& events,
    std::vector<Transition>& out) const {
  // Submits and faults lead the list: DFS then tries the schedules that
  // interleave them early in the protocol first, which is where seeded
  // mutations bite — pure delivery permutations come after. Exhaustive
  // coverage does not depend on this order, only time-to-counterexample.
  out.clear();
  for (std::uint32_t i = 0; i < scope_->accesses.size(); ++i) {
    if ((submitted >> i) & 1u) continue;
    Transition t;
    t.choice.kind = Choice::Kind::kSubmit;
    t.choice.index = i;
    t.global = true;
    t.key = 0xACCE55ull << 32 | i;
    out.push_back(std::move(t));
  }
  for (std::uint32_t i = 0; i < scope_->faults.size(); ++i) {
    if ((faulted >> i) & 1u) continue;
    Transition t;
    t.choice.kind = Choice::Kind::kFault;
    t.choice.index = i;
    t.global = true;
    t.key = 0xFA17ull << 32 | i;
    out.push_back(std::move(t));
  }
  c.model_enabled_events(events);
  for (const Cluster::ModelEvent& e : events) {
    Transition t;
    t.choice.kind = Choice::Kind::kEvent;
    t.choice.event_kind = e.kind;
    t.choice.target = e.target;
    t.choice.link = e.index;
    t.choice.request = e.request;
    t.choice.phase = e.phase;
    t.choice.message = e.message;
    for (const Transition& prev : out) {
      if (prev.choice.kind == Choice::Kind::kEvent &&
          same_descriptor(prev.choice, e)) {
        ++t.choice.occurrence;
      }
    }
    t.seq = e.seq;
    t.site = e.target;
    t.key = descriptor_key(t.choice);
    out.push_back(std::move(t));
  }
}

void Explorer::apply(msg::Cluster& c, const Transition& t,
                     std::uint32_t& submitted, std::uint32_t& faulted) const {
  switch (t.choice.kind) {
    case Choice::Kind::kEvent: {
      [[maybe_unused]] const bool fired = c.model_step_event(t.seq);
      QUORA_PRECONDITION(fired, "enabled event vanished before firing");
      break;
    }
    case Choice::Kind::kSubmit: {
      const fault::Action& a = scope_->accesses[t.choice.index];
      c.model_submit_access(a.site, a.is_read);
      submitted |= 1u << t.choice.index;
      break;
    }
    case Choice::Kind::kFault:
      // A fault step is atomic: every action in the group fires before
      // the next transition is chosen (e.g. `crash S for 0` = down+up).
      for (const fault::Action& a : scope_->faults[t.choice.index]) {
        c.model_apply_fault(a);
      }
      faulted |= 1u << t.choice.index;
      break;
  }
}

void Explorer::stored_qr_versions(const msg::Cluster& c,
                                  std::vector<std::uint64_t>& out) const {
  const net::Topology& topo = scope_->chaos.system->topology;
  out.resize(topo.site_count());
  for (net::SiteId s = 0; s < topo.site_count(); ++s) {
    out[s] = c.reassignment().stored(s).version;
  }
}

std::optional<Violation> Explorer::check_state(
    const msg::Cluster& c, const std::vector<std::uint64_t>& prev_qr,
    const std::vector<std::uint64_t>& cur_qr,
    msg::SafetyScratch& scratch) const {
  Violation v;
  v.safety = msg::check_safety(c, scratch);

  // qr-monotonicity: §2.2 requires stored assignment versions to only
  // ever move forward; a decrease would resurrect a superseded quorum.
  for (std::size_t s = 0; s < cur_qr.size(); ++s) {
    if (cur_qr[s] < prev_qr[s]) {
      v.properties.push_back(PropertyViolation{
          "qr-monotonicity",
          "site " + std::to_string(s) + " stored QR version went backwards: " +
              std::to_string(prev_qr[s]) + " -> " +
              std::to_string(cur_qr[s])});
    }
  }

  // quorum-intersection: every installed assignment must satisfy
  // Gifford's two conditions against the vote total.
  const net::Vote total = scope_->chaos.system->topology.total_votes();
  for (const Cluster::InstallRecord& r : c.installs()) {
    if (!r.spec.valid(total)) {
      v.properties.push_back(PropertyViolation{
          "quorum-intersection",
          "installed assignment v" + std::to_string(r.version) + " (" +
              std::to_string(r.spec.q_r) + ", " + std::to_string(r.spec.q_w) +
              ") violates the intersection conditions for T=" +
              std::to_string(total)});
    }
  }

  // grant-without-quorum: a granted access must be backed by at least a
  // quorum of votes under the assignment version it ran under.
  const auto spec_of = [&](std::uint64_t qr_version,
                           quorum::QuorumSpec& spec) {
    if (qr_version <= 1) {
      spec = scope_->chaos.has_quorum
                 ? scope_->chaos.quorum
                 : quorum::majority(total);
      return true;
    }
    for (const Cluster::InstallRecord& r : c.installs()) {
      if (r.version == qr_version) {
        spec = r.spec;
        return true;
      }
    }
    return false;
  };
  for (const msg::AccessOutcome& o : c.outcomes()) {
    if (!o.granted) continue;
    quorum::QuorumSpec spec;
    if (!spec_of(o.qr_version, spec)) {
      v.properties.push_back(PropertyViolation{
          "grant-without-quorum",
          "granted access at site " + std::to_string(o.origin) +
              " ran under QR version " + std::to_string(o.qr_version) +
              " which was never installed"});
      continue;
    }
    const bool ok = o.is_read ? spec.allows_read(o.votes_collected)
                              : spec.allows_write(o.votes_collected);
    if (!ok) {
      v.properties.push_back(PropertyViolation{
          "grant-without-quorum",
          std::string("granted ") + (o.is_read ? "read" : "write") +
              " at site " + std::to_string(o.origin) + " collected " +
              std::to_string(o.votes_collected) + " votes < quorum (" +
              std::to_string(o.is_read ? spec.q_r : spec.q_w) + ") under v" +
              std::to_string(o.qr_version)});
    }
  }

  if (v.safety.ok() && v.properties.empty()) return std::nullopt;
  return v;
}

namespace {
// Sleep-key run header: the run's length in the top 16 bits, the arena
// offset of the next run in the chain below.
constexpr int kRunLenShift = 48;
constexpr std::uint64_t kRunNextMask = (std::uint64_t{1} << kRunLenShift) - 1;
static_assert(kMaxModelStates <= kRunNextMask / 4096,
              "arena offsets must hold thousands of runs per admissible state");
} // namespace

void Explorer::VisitedTable::clear() {
  // The table keeps the size it grew to, emptied: a later run of the same
  // scope grows it just as far, so that run never grows (or allocates).
  // No count depends on the table's size, only on the keys it holds.
  if (slots_.empty()) {
    slots_.resize(1024);
  } else {
    std::fill(slots_.begin(), slots_.end(), Slot{});
  }
  size_ = 0;
  runs_.assign(1, 0);
}

std::size_t Explorer::VisitedTable::find(const Key& key) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = key[0] & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.head == 0 || s.key == key) return i;
  }
}

bool Explorer::VisitedTable::covered(
    std::size_t slot, std::span<const std::uint64_t> keys) const {
  for (std::uint64_t at = slots_[slot].head; at != 0;) {
    const std::uint64_t header = runs_[at];
    const auto run = runs_.begin() + static_cast<std::ptrdiff_t>(at + 1);
    if (std::includes(keys.begin(), keys.end(), run,
                      run + static_cast<std::ptrdiff_t>(header >> kRunLenShift))) {
      return true;
    }
    at = header & kRunNextMask;
  }
  return false;
}

void Explorer::VisitedTable::record(std::size_t slot, const Key& key,
                                    std::span<const std::uint64_t> keys) {
  const std::uint64_t at = runs_.size();
  if (at > kRunNextMask ||
      keys.size() >= (std::size_t{1} << (64 - kRunLenShift))) {
    throw std::length_error("model visited set: sleep-set arena overflow");
  }
  Slot& s = slots_[slot];
  runs_.push_back((std::uint64_t{keys.size()} << kRunLenShift) | s.head);
  runs_.insert(runs_.end(), keys.begin(), keys.end());
  if (s.head == 0) {
    s.key = key;
    ++size_;
  }
  s.head = at;
  if (2 * size_ > slots_.size()) grow();
}

void Explorer::VisitedTable::grow() {
  if (slots_.size() > slots_.max_size() / 2) {
    throw std::length_error("model visited set: table overflow");
  }
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  for (const Slot& s : old) {
    if (s.head != 0) slots_[find(s.key)] = s;
  }
}

bool Explorer::dfs(std::uint32_t submitted, std::uint32_t faulted,
                   std::uint64_t depth,
                   const std::vector<std::uint64_t>& prev_qr) {
  ++stats_.explored;
  stats_.max_depth_seen = std::max(stats_.max_depth_seen, depth);
  Frame& f = frames_[depth];
  const msg::Cluster& cur = *f.state;

  stored_qr_versions(cur, f.qr);
  if (std::optional<Violation> v =
          check_state(cur, prev_qr, f.qr, safety_scratch_)) {
    v->trace = path_;
    found_ = std::move(v);
    return true;
  }

  // Visited set with the DPOR covering rule: a fingerprint revisited
  // under sleep set S is pruned only if it was already explored under
  // some S' ⊆ S — then everything S would allow was already tried.
  f.sleep_keys.clear();
  for (const SleepEntry& z : f.sleep) f.sleep_keys.push_back(z.key);
  std::sort(f.sleep_keys.begin(), f.sleep_keys.end());
  words_.clear();
  cur.model_serialize(words_);
  words_.push_back(submitted);
  words_.push_back(faulted);
  const VisitedTable::Key key = Cluster::model_hash(words_);
  const std::size_t slot = visited_.find(key);
  if (!visited_.occupied(slot)) {
    ++stats_.unique_states;
    if (stats_.unique_states > scope_->max_states) {
      stats_.state_capped = true;
      return false;
    }
  } else if (visited_.covered(slot, f.sleep_keys)) {
    ++stats_.visited_hits;
    return false;
  }
  visited_.record(slot, key, f.sleep_keys);

  enabled_transitions(cur, submitted, faulted, f.events, f.todo);
  if (f.todo.empty()) return false;  // quiescent: everything resolved

  const auto asleep = [&](const Transition& t) {
    return std::binary_search(f.sleep_keys.begin(), f.sleep_keys.end(),
                              t.key);
  };
  const auto awake_end = std::remove_if(f.todo.begin(), f.todo.end(), asleep);
  stats_.sleep_pruned += static_cast<std::uint64_t>(f.todo.end() - awake_end);
  f.todo.erase(awake_end, f.todo.end());
  if (f.todo.empty()) return false;

  if (depth >= scope_->max_depth) {
    stats_.depth_capped = true;
    return false;
  }

  if (frames_.size() == depth + 1) frames_.emplace_back();
  Frame& next = frames_[depth + 1];
  for (const Transition& t : f.todo) {
    // Copy-assignment reuses the storage `next` kept from its last state.
    next.state = cur;
    next.state->model_rebind();
    std::uint32_t child_submitted = submitted;
    std::uint32_t child_faulted = faulted;
    apply(*next.state, t, child_submitted, child_faulted);
    ++stats_.transitions;

    // Sleep entries independent of t stay asleep in the child; a
    // dependent one is woken (its orderings relative to t now matter).
    next.sleep.clear();
    for (const SleepEntry& z : f.sleep) {
      const bool dependent = z.global || t.global || z.site == t.site;
      if (!dependent) next.sleep.push_back(z);
    }

    path_.push_back(t.choice);
    if (dfs(child_submitted, child_faulted, depth + 1, f.qr)) return true;
    path_.pop_back();
    if (stats_.state_capped) return false;

    if (opt_.dpor) f.sleep.push_back(SleepEntry{t.key, t.site, t.global});
  }
  return false;
}

std::optional<Violation> Explorer::run() {
  stats_ = Stats{};
  visited_.clear();
  found_.reset();
  path_.clear();

  if (frames_.empty()) frames_.emplace_back();
  Frame& root = frames_[0];
  if (!root.state) {
    root.state.emplace(make_cluster());
    root.state->model_rebind();
  }
  root.sleep.clear();
  // The initial state has no predecessor: its QR versions are compared
  // with themselves.
  stored_qr_versions(*root.state, root.qr);
  dfs(0, 0, 0, root.qr);
  return std::move(found_);
}

std::optional<Violation> Explorer::replay(
    const std::vector<Choice>& trace) const {
  msg::Cluster c = make_cluster();
  std::uint32_t submitted = 0;
  std::uint32_t faulted = 0;
  std::vector<std::uint64_t> prev_qr;
  stored_qr_versions(c, prev_qr);
  std::vector<std::uint64_t> cur_qr;
  std::vector<Choice> done;
  msg::SafetyScratch scratch;

  if (std::optional<Violation> v = check_state(c, prev_qr, prev_qr, scratch)) {
    v->trace = done;
    return v;
  }
  for (const Choice& choice : trace) {
    switch (choice.kind) {
      case Choice::Kind::kSubmit: {
        if (choice.index >= scope_->accesses.size() ||
            ((submitted >> choice.index) & 1u)) {
          return std::nullopt;
        }
        const fault::Action& a = scope_->accesses[choice.index];
        c.model_submit_access(a.site, a.is_read);
        submitted |= 1u << choice.index;
        break;
      }
      case Choice::Kind::kFault:
        if (choice.index >= scope_->faults.size() ||
            ((faulted >> choice.index) & 1u)) {
          return std::nullopt;
        }
        for (const fault::Action& a : scope_->faults[choice.index]) {
          c.model_apply_fault(a);
        }
        faulted |= 1u << choice.index;
        break;
      case Choice::Kind::kEvent: {
        std::uint64_t seq = 0;
        std::uint32_t seen = 0;
        bool matched = false;
        for (const msg::Cluster::ModelEvent& e : c.model_enabled_events()) {
          if (!same_descriptor(choice, e)) continue;
          if (seen++ == choice.occurrence) {
            seq = e.seq;
            matched = true;
            break;
          }
        }
        if (!matched || !c.model_step_event(seq)) return std::nullopt;
        break;
      }
    }
    done.push_back(choice);
    stored_qr_versions(c, cur_qr);
    if (std::optional<Violation> v = check_state(c, prev_qr, cur_qr, scratch)) {
      v->trace = done;
      return v;
    }
    prev_qr.swap(cur_qr);
  }
  return std::nullopt;
}

std::vector<Choice> Explorer::minimize(const Violation& seed) const {
  const std::vector<std::string> target = seed.codes();
  const auto covers = [&target](const Violation& v) {
    const std::vector<std::string> got = v.codes();
    return std::includes(got.begin(), got.end(), target.begin(),
                         target.end());
  };

  // The seed trace is already truncated at its first violating state;
  // re-replay to normalize in case the caller assembled it by hand.
  std::vector<Choice> best = seed.trace;
  if (std::optional<Violation> v = replay(best); v && covers(*v)) {
    best = v->trace;
  }

  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (std::size_t i = 0; i < best.size(); ++i) {
      std::vector<Choice> candidate;
      candidate.reserve(best.size() - 1);
      for (std::size_t j = 0; j < best.size(); ++j) {
        if (j != i) candidate.push_back(best[j]);
      }
      std::optional<Violation> v = replay(candidate);
      if (v && covers(*v)) {
        best = std::move(v->trace);  // also truncates
        shrunk = true;
        break;
      }
    }
  }
  return best;
}

} // namespace quora::model
