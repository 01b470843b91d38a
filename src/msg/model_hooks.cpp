#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <utility>

#include "core/contracts.hpp"
#include "msg/cluster.hpp"

// Model-checker hooks for msg::Cluster (Params::model_mode). The explorer
// (src/model) owns the schedule: it reads the enabled transitions, fires
// one by sequence number, and snapshots the cluster by copy-assignment.
// Everything here is off the simulation hot path — the timed benchmarks
// never set model_mode.

namespace quora::msg {
namespace {

/// splitmix64's finalizer: full avalanche of one word.
std::uint64_t avalanche(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One pending event's canonical encoding: a fixed-size inline record
/// (a delivery, the longest, is 15 words). Records order exactly as the
/// equivalent word vectors would: lexicographically, a prefix first.
struct EventRecord {
  std::array<std::uint64_t, 15> w;
  std::size_t n;

  bool operator<(const EventRecord& o) const {
    return std::lexicographical_compare(w.begin(), w.begin() + n, o.w.begin(),
                                        o.w.begin() + o.n);
  }
};

template <typename... W>
EventRecord record(W... w) {
  return EventRecord{{static_cast<std::uint64_t>(w)...}, sizeof...(W)};
}

} // namespace

std::vector<Cluster::ModelEvent> Cluster::model_enabled_events() const {
  std::vector<ModelEvent> out;
  model_enabled_events(out);
  return out;
}

void Cluster::model_enabled_events(std::vector<ModelEvent>& out) const {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_enabled_events needs Params::model_mode");
  // Per directed link, find the earliest pending delivery by (time, seq):
  // links are FIFO per direction, so only that head is enabled — a later
  // delivery on the same direction cannot overtake it under any timing.
  // The shipped scopes have a handful of links, so the heads sit on the
  // stack; a larger topology spills to the heap.
  using Head = std::pair<double, std::uint64_t>;
  constexpr Head kNoHead{std::numeric_limits<double>::infinity(),
                         ~std::uint64_t{0}};
  constexpr std::size_t kInlineDirs = 64;
  std::array<Head, kInlineDirs> inline_heads;
  std::vector<Head> spilled;
  Head* head = inline_heads.data();
  if (dir_blocked_.size() > kInlineDirs) {
    spilled.resize(dir_blocked_.size());
    head = spilled.data();
  }
  std::fill(head, head + dir_blocked_.size(), kNoHead);
  const auto dir_of = [this](const Event& e) {
    return 2 * static_cast<std::size_t>(e.index) +
           (topo_->link(e.index).b == e.target ? 0 : 1);
  };
  for (const Event& e : model_queue_) {
    if (e.kind != Kind::kDelivery) continue;
    const std::size_t dir = dir_of(e);
    if (e.time < head[dir].first ||
        (e.time == head[dir].first && e.seq < head[dir].second)) {
      head[dir] = {e.time, e.seq};
    }
  }

  out.clear();
  out.reserve(model_queue_.size());
  for (const Event& e : model_queue_) {
    ModelEvent me;
    me.seq = e.seq;
    me.target = e.target;
    me.index = e.index;
    me.request = e.request;
    me.phase = e.phase;
    switch (e.kind) {
      case Kind::kDelivery:
        if (head[dir_of(e)].second != e.seq) continue;  // behind the FIFO head
        me.kind = ModelEventKind::kDelivery;
        me.message = e.message;
        break;
      case Kind::kTimer:
        me.kind = ModelEventKind::kTimer;
        break;
      case Kind::kRetry:
        me.kind = ModelEventKind::kRetry;
        break;
      default:
        // Nothing else is ever scheduled in model mode (no Poisson events,
        // no injector timeline) — but enumerate defensively.
        me.kind = ModelEventKind::kOther;
        break;
    }
    out.push_back(me);
  }
}

void Cluster::model_purge_dead_timers() {
  // handle_timer ignores a timer whose request is decided or whose phase
  // was superseded, and with max_retries == 0 (model mode) phases only
  // advance — so such an event can never do anything again. Dropping it
  // here merges every "fire the dead timer now vs. later" pair of states.
  model_queue_.erase(
      std::remove_if(model_queue_.begin(), model_queue_.end(),
                     [this](const Event& e) {
                       if (e.kind != Kind::kTimer && e.kind != Kind::kRetry) {
                         return false;
                       }
                       const PendingTable& table = pending_[e.target];
                       const std::size_t i = table.find(e.request);
                       if (i == PendingTable::npos) return true;
                       return e.kind == Kind::kTimer && table[i].phase != e.phase;
                     }),
      model_queue_.end());
}

bool Cluster::model_step_event(std::uint64_t seq) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_step_event needs Params::model_mode");
  for (std::size_t i = 0; i < model_queue_.size(); ++i) {
    if (model_queue_[i].seq != seq) continue;
    const Event e = model_queue_[i];
    model_queue_.erase(model_queue_.begin() +
                       static_cast<std::ptrdiff_t>(i));
    // Logical clock: one tick per transition. Submission and decision
    // timestamps then order by firing sequence, which is exactly the
    // linearization `check_safety`'s real-time comparisons audit.
    now_ += 1.0;
    step(e);
    model_purge_dead_timers();
    return true;
  }
  return false;
}

void Cluster::model_submit_access(net::SiteId origin, bool is_read) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_submit_access needs Params::model_mode");
  now_ += 1.0;
  submit_access(origin, is_read);
  model_purge_dead_timers();
}

void Cluster::model_apply_fault(const fault::Action& action) {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_apply_fault needs Params::model_mode");
  QUORA_PRECONDITION(action.kind != fault::Action::Kind::kArmCrashOnCommit,
                     "model mode has no injector to arm (audit rejects this)");
  now_ += 1.0;
  apply_fault(action);
  model_purge_dead_timers();
}

void Cluster::model_serialize(std::vector<std::uint64_t>& out) const {
  QUORA_PRECONDITION(params_.model_mode,
                     "model_serialize needs Params::model_mode");
  const auto u = [&out](std::uint64_t v) { out.push_back(v); };

  // Newest record decided at or before `t` — the floor a pending access
  // will eventually be audited against. Storing the floor instead of the
  // raw submit timestamp keeps the encoding time-free.
  const auto floor_of = [](const auto& records, double t) {
    std::uint64_t f = 0;
    for (const auto& r : records) {
      if (r.decide_time <= t && r.version > f) f = r.version;
    }
    return f;
  };

  // Liveness + gray cuts.
  for (net::SiteId s = 0; s < topo_->site_count(); ++s) {
    u(live_.is_site_up(s) ? 1 : 0);
  }
  for (net::LinkId l = 0; l < topo_->link_count(); ++l) {
    u(live_.is_link_up(l) ? 1 : 0);
  }
  for (const char b : dir_blocked_) u(static_cast<std::uint64_t>(b));

  // Per-site durable + volatile protocol state. Coordinator tables, their
  // site rows and flood windows all iterate in key order, so the encoding
  // is canonical by construction.
  for (net::SiteId s = 0; s < topo_->site_count(); ++s) {
    u(copies_[s].value);
    u(copies_[s].version);
    u(leases_[s].request);  // expiry is effectively infinite in model mode
    const core::QuorumReassignment::Assignment& a = qr_.stored(s);
    u(a.version);
    u(a.spec.q_r);
    u(a.spec.q_w);

    const PendingTable& table = pending_[s];
    u(table.size());
    for (std::size_t i = 0; i < table.size(); ++i) {
      const Pending& p = table[i];
      u(table.request(i));
      u(p.is_read ? 1 : 0);
      u(static_cast<std::uint64_t>(p.phase));
      u(p.attempt);
      u(p.spec.q_r);
      u(p.spec.q_w);
      u(p.qr_version);
      u(p.votes);
      u(p.denied);
      u(p.acked);
      u(table.count(i, PendingTable::Row::kRepliers));
      table.for_each(i, PendingTable::Row::kRepliers, u);
      u(table.count(i, PendingTable::Row::kAckers));
      table.for_each(i, PendingTable::Row::kAckers, u);
      u(p.best_version);
      u(p.best_value);
      u(p.write_value);
      u(p.oracle_granted ? 1 : 0);
      u(floor_of(commits_, p.submit_time));
      u(floor_of(installs_, p.submit_time));
    }

    // Present floods, counted once the window has been walked.
    const std::size_t count_at = out.size();
    u(0);
    std::uint64_t floods = 0;
    floods_[s].for_each([&](std::uint64_t key, std::uint32_t slot) {
      const bool has_parent = FloodWindow::has_parent(slot);
      u(key);
      u(has_parent ? 1 : 0);
      u(has_parent ? FloodWindow::parent_link(slot) : 0);
      ++floods;
    });
    out[count_at] = floods;
  }
  u(next_request_);

  // Safety-history digest: the slice of the past that constrains *future*
  // verdicts. Committed versions as a sorted multiset (a future commit
  // duplicating any of them violates uniqueness) and the newest install
  // (the stale-assignment floor of every future access).
  u(commits_.size());
  const std::size_t versions_at = out.size();
  for (const CommitRecord& c : commits_) u(c.version);
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(versions_at), out.end());
  std::uint64_t newest_install = 0;
  for (const InstallRecord& r : installs_) {
    newest_install = std::max(newest_install, r.version);
  }
  u(newest_install);

  // In-flight events as a canonical multiset. Deliveries carry their
  // directed link and FIFO rank (position in that direction's pending
  // order) instead of absolute times; two states whose queues differ only
  // in timestamps — but agree on per-direction order — encode equal,
  // which is the whole point of the untimed abstraction.
  const auto dir_of = [this](const Event& e) {
    return 2 * static_cast<std::size_t>(e.index) +
           (topo_->link(e.index).b == e.target ? 0 : 1);
  };
  const auto fifo_rank = [&](const Event& e) {
    std::uint64_t rank = 0;
    const std::size_t dir = dir_of(e);
    for (const Event& o : model_queue_) {
      if (o.kind != Kind::kDelivery || dir_of(o) != dir) continue;
      if (o.time < e.time || (o.time == e.time && o.seq < e.seq)) ++rank;
    }
    return rank;
  };
  // The shipped scopes never queue more than ~20 events, so the records
  // are encoded and sorted on the stack; a longer queue spills to the
  // heap.
  constexpr std::size_t kInlineRecords = 64;
  std::array<EventRecord, kInlineRecords> inline_records;
  std::vector<EventRecord> spilled;
  EventRecord* records = inline_records.data();
  if (model_queue_.size() > kInlineRecords) {
    spilled.resize(model_queue_.size());
    records = spilled.data();
  }
  std::size_t n = 0;
  for (const Event& e : model_queue_) {
    switch (e.kind) {
      case Kind::kDelivery: {
        const Message& m = e.message;
        records[n++] =
            record(1, dir_of(e), fifo_rank(e), m.kind, m.is_write, m.request,
                   m.coordinator, m.sender, m.replier, m.votes, m.version,
                   m.value, m.qr_version, m.qr_r, m.qr_w);
        break;
      }
      case Kind::kTimer:
        records[n++] = record(2, e.target, e.request, e.phase);
        break;
      case Kind::kRetry:
        records[n++] = record(3, e.target, e.request);
        break;
      default:
        records[n++] = record(4, e.kind, e.index, e.target, e.request);
        break;
    }
  }
  std::sort(records, records + n);
  u(n);
  for (std::size_t i = 0; i < n; ++i) {
    u(records[i].n);
    out.insert(out.end(), records[i].w.begin(),
               records[i].w.begin() + records[i].n);
  }
}

std::array<std::uint64_t, 2> Cluster::model_hash(
    std::span<const std::uint64_t> words) noexcept {
  // Two independent word-at-a-time lanes: xxHash64's round and
  // MurmurHash3's x64 round, each seeded differently and finished with a
  // full avalanche over the length. Each word costs one dependent
  // multiply per lane, and the lanes run in parallel.
  std::uint64_t a = 0x9E3779B97F4A7C15ull;
  std::uint64_t b = 0x27D4EB2F165667C5ull;
  for (const std::uint64_t w : words) {
    a = std::rotl(a + w * 0xC2B2AE3D27D4EB4Full, 31) * 0x9E3779B185EBCA87ull;
    const std::uint64_t k =
        std::rotl(w * 0x87C37B91114253D5ull, 31) * 0x4CF5AD432745937Full;
    b = std::rotl(b ^ k, 27) * 5 + 0x52DCE729;
  }
  return {avalanche(a ^ words.size()), avalanche(b + words.size())};
}

std::array<std::uint64_t, 2> Cluster::model_fingerprint() const {
  std::vector<std::uint64_t> words;
  words.reserve(256);
  model_serialize(words);
  return model_hash(words);
}

} // namespace quora::msg
