// Unit coverage of src/model: the `.model` scope parser/auditor and the
// bounded explorer on scopes small enough to exhaust in milliseconds.
// The end-to-end seeded-mutation checks live in test_model_mutations.cpp
// (sanitizer-slow suite) and the ctest harness targets.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "io/config_audit.hpp"
#include "io/topology_io.hpp"
#include "model/explorer.hpp"
#include "model/scope.hpp"
#include "msg/cluster.hpp"
#include "quorum/quorum_spec.hpp"
#include "rng/xoshiro256ss.hpp"

#ifndef QUORA_EXAMPLES_DIR
#error "QUORA_EXAMPLES_DIR must point at examples/ (set by tests/CMakeLists.txt)"
#endif

namespace {

using quora::io::AuditCode;
using quora::io::AuditReport;
using quora::io::AuditSeverity;
using quora::model::Explorer;
using quora::model::Options;
using quora::model::Scope;
using quora::model::Violation;
using quora::msg::Cluster;
using quora::msg::Message;

Scope parse(const std::string& text) {
  std::istringstream in(text);
  return quora::model::load_model(in);
}

AuditReport audit(const std::string& text) {
  std::istringstream in(text);
  return quora::model::audit_model(in);
}

std::size_t errors_with(const AuditReport& report, AuditCode code) {
  std::size_t n = 0;
  for (const auto& f : report.findings) {
    if (f.code == code && f.severity == AuditSeverity::kError) ++n;
  }
  return n;
}

constexpr const char* kTinyScope =
    "name unit-tiny\n"
    "quorum 1 2\n"
    "sites 2\n"
    "link 0 1\n"
    "at 1 access 0 write\n"
    "depth 24\n"
    "states 100000\n";

TEST(ModelScope, ParsesDirectivesAndSplitsActions) {
  const Scope scope = parse(
      "name split\n"
      "quorum 2 2\n"
      "sites 3\n"
      "ring\n"
      "at 1 access 0 write\n"
      "at 2 access 2 read\n"
      "at 3 link 0 down\n"
      "at 4 link 0 up\n"
      "depth 32\n"
      "states 5000\n");
  EXPECT_EQ(scope.name(), "split");
  EXPECT_EQ(scope.max_depth, 32u);
  EXPECT_EQ(scope.max_states, 5000u);
  ASSERT_EQ(scope.accesses.size(), 2u);
  EXPECT_FALSE(scope.accesses[0].is_read);
  EXPECT_TRUE(scope.accesses[1].is_read);
  ASSERT_EQ(scope.faults.size(), 2u);  // distinct labels: two atomic steps
  EXPECT_EQ(scope.faults[0].size(), 1u);
  EXPECT_EQ(scope.faults[1].size(), 1u);
}

TEST(ModelScope, CrashFormsOneAtomicFaultGroup) {
  // `crash S for 0` expands to a down/up pair sharing one label — the
  // explorer must fire it as a single instantaneous transition.
  const Scope scope = parse(
      "quorum 2 2\nsites 3\nring\n"
      "at 1 access 0 write\n"
      "at 2 crash 1 for 0\n");
  ASSERT_EQ(scope.faults.size(), 1u);
  ASSERT_EQ(scope.faults[0].size(), 2u);
  EXPECT_EQ(scope.faults[0][0].kind, quora::fault::Action::Kind::kSiteDown);
  EXPECT_EQ(scope.faults[0][1].kind, quora::fault::Action::Kind::kSiteUp);
}

TEST(ModelScope, DistinctLabelsStaySeparateSteps) {
  const Scope scope = parse(
      "quorum 2 2\nsites 3\nring\n"
      "at 1 access 0 write\n"
      "at 2 site 1 down\n"
      "at 3 site 1 up\n");
  ASSERT_EQ(scope.faults.size(), 2u);
}

TEST(ModelScope, DepthDirectiveValidates) {
  EXPECT_THROW(parse("depth 0\n"), quora::io::ParseError);
  EXPECT_THROW(parse("depth\n"), quora::io::ParseError);
  EXPECT_THROW(parse("states 10 trailing\n"), quora::io::ParseError);
}

TEST(ModelScope, ParseErrorKeepsOriginalLineNumbers) {
  // depth/states lines are stripped before the chaos parser runs; blank
  // substitution must keep downstream line numbers aligned.
  try {
    parse("depth 10\nstates 20\nbogus-directive 1\n");
    FAIL() << "expected ParseError";
  } catch (const quora::io::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(ModelAudit, AcceptsAWellFormedScope) {
  EXPECT_TRUE(audit(kTinyScope).ok());
}

TEST(ModelAudit, FlagsScopeBeyondTheExplorableBounds) {
  const AuditReport report = audit(
      "quorum 4 4\nsites 6\nring\n"
      "at 1 link 0 down\n"
      "depth 100000\nstates 200000000\n");
  // 6 sites, no access, depth and states over their caps: four errors.
  EXPECT_EQ(errors_with(report, AuditCode::kModelScopeConfig), 4u);
}

TEST(ModelAudit, FlagsAlphabetTheModelCannotExpress) {
  const AuditReport report = audit(
      "quorum 2 2\nsites 3\nring\n"
      "at 1 access 0 write\n"
      "at 2 crash-on-commit any for 10\n"
      "at 3 reliability 0.5\n"
      "window 1 5 drop 0.5\n");
  EXPECT_EQ(errors_with(report, AuditCode::kModelScopeConfig), 3u);
}

TEST(ModelAudit, WarnsOnIgnoredTimedDirectives) {
  const AuditReport report = audit(
      "quorum 1 2\nsites 2\nlink 0 1\n"
      "seed 7\nhorizon 50\n"
      "at 1 access 0 write\n");
  EXPECT_TRUE(report.ok());  // warnings only
  std::size_t warnings = 0;
  for (const auto& f : report.findings) {
    if (f.code == AuditCode::kModelScopeConfig &&
        f.severity == AuditSeverity::kWarning) {
      ++warnings;
    }
  }
  EXPECT_EQ(warnings, 2u);
}

TEST(ModelExplorer, ExhaustsATinyScopeSafely) {
  const Scope scope = parse(kTinyScope);
  Explorer explorer(scope);
  EXPECT_FALSE(explorer.run().has_value());
  const quora::model::Stats& stats = explorer.stats();
  EXPECT_GT(stats.unique_states, 1u);
  EXPECT_FALSE(stats.state_capped);
  EXPECT_FALSE(stats.depth_capped);
  EXPECT_EQ(stats.explored, stats.transitions + 1);  // a DFS tree
}

TEST(ModelExplorer, DporAgreesWithFullExploration) {
  const Scope scope = parse(
      "quorum 2 2\nsites 3\nlink 0 1\nlink 1 2\n"
      "at 1 access 0 write\n"
      "at 2 access 2 read\n"
      "depth 32\nstates 100000\n");
  Explorer with_dpor(scope, Options{/*dpor=*/true});
  Explorer without(scope, Options{/*dpor=*/false});
  EXPECT_FALSE(with_dpor.run().has_value());
  EXPECT_FALSE(without.run().has_value());
  // Both complete the scope, agree on the reachable unique states, and
  // DPOR does strictly less work.
  EXPECT_EQ(with_dpor.stats().unique_states, without.stats().unique_states);
  EXPECT_GT(with_dpor.stats().sleep_pruned, 0u);
  EXPECT_EQ(without.stats().sleep_pruned, 0u);
  EXPECT_LE(with_dpor.stats().transitions, without.stats().transitions);
}

TEST(ModelExplorer, StateBudgetCapsAreReported) {
  Scope scope = parse(
      "quorum 2 2\nsites 3\nring\n"
      "at 1 access 0 write\n"
      "at 2 access 2 write\n");
  scope.max_states = 50;
  Explorer explorer(scope);
  EXPECT_FALSE(explorer.run().has_value());
  EXPECT_TRUE(explorer.stats().state_capped);
}

Scope load_example(const std::string& name) {
  return quora::model::load_model_file(std::string(QUORA_EXAMPLES_DIR) +
                                       "/model/" + name);
}

struct Counts {
  std::uint64_t explored;
  std::uint64_t unique_states;
  std::uint64_t visited_hits;
  std::uint64_t sleep_pruned;
};

void expect_counts(const quora::model::Stats& stats, const Counts& want) {
  EXPECT_EQ(stats.explored, want.explored);
  EXPECT_EQ(stats.unique_states, want.unique_states);
  EXPECT_EQ(stats.visited_hits, want.visited_hits);
  EXPECT_EQ(stats.sleep_pruned, want.sleep_pruned);
}

// The exploration counts below are pinned: the DFS order, the covering
// rule and the state-cap semantics decide them exactly, so a change to
// the state store or the fingerprint must reproduce them to the state.

TEST(ModelExplorer, PinnedCountsOnTheShippedSweepScope) {
  const Scope scope = load_example("tiny_line.model");
  Explorer with_dpor(scope, Options{/*dpor=*/true});
  EXPECT_FALSE(with_dpor.run().has_value());
  expect_counts(with_dpor.stats(), {25'615, 9'347, 12'862, 13'386});
  Explorer without(scope, Options{/*dpor=*/false});
  EXPECT_FALSE(without.run().has_value());
  expect_counts(without.stats(), {28'892, 9'347, 19'545, 0});
}

TEST(ModelExplorer, PinnedCountsThroughVisitedTableGrowth) {
  // 20k states take the visited table through several doublings and the
  // run ends on the state cap, so growth, rehash and the cap all count.
  Scope scope = load_example("mutation_crash_cleanup.model");
  scope.chaos.mutations.clear();
  scope.max_states = 20'000;
  Explorer explorer(scope);
  for (int run = 0; run < 2; ++run) {  // a second run starts from empty
    EXPECT_FALSE(explorer.run().has_value());
    expect_counts(explorer.stats(), {37'672, 20'001, 14'318, 43'940});
    EXPECT_TRUE(explorer.stats().state_capped);
  }
}

/// The canonical word stream of `c`.
std::vector<std::uint64_t> stream(const Cluster& c) {
  std::vector<std::uint64_t> words;
  c.model_serialize(words);
  return words;
}

// Canonical-encoding properties of Cluster::model_serialize on the
// 3-site line 0 - 1 - 2 (link 0 joins sites 0 and 1, link 1 sites 1
// and 2).
class ModelEncoding : public ::testing::Test {
protected:
  const Scope scope_ = parse(
      "quorum 2 2\nsites 3\nlink 0 1\nlink 1 2\nat 1 access 0 write\n");

  Cluster make() const {
    Cluster::Params params;
    params.model_mode = true;
    params.spec = scope_.chaos.quorum;
    return Cluster(scope_.chaos.system->topology, params, /*seed=*/1);
  }
  static Cluster copy(const Cluster& c) {
    Cluster out = c;
    out.model_rebind();
    return out;
  }
  /// Fires the enabled delivery of `kind` from `sender` to `target`.
  static void deliver(Cluster& c, Message::Kind kind,
                      quora::net::SiteId sender, quora::net::SiteId target) {
    for (const Cluster::ModelEvent& e : c.model_enabled_events()) {
      if (e.kind == Cluster::ModelEventKind::kDelivery && e.target == target &&
          e.message.kind == kind && e.message.sender == sender) {
        ASSERT_TRUE(c.model_step_event(e.seq));
        return;
      }
    }
    FAIL() << "no enabled delivery " << sender << " -> " << target;
  }
  /// The enabled events in queue order, as (kind, sender, target).
  static std::vector<std::tuple<int, quora::net::SiteId, quora::net::SiteId>>
  queue_order(const Cluster& c) {
    std::vector<std::tuple<int, quora::net::SiteId, quora::net::SiteId>> out;
    for (const Cluster::ModelEvent& e : c.model_enabled_events()) {
      out.emplace_back(static_cast<int>(e.kind), e.message.sender, e.target);
    }
    return out;
  }
};

TEST_F(ModelEncoding, CommutingDeliveriesAtDistinctSitesEncodeEqual) {
  Cluster root = make();
  root.model_submit_access(1, /*is_read=*/true);
  Cluster ab = copy(root);
  deliver(ab, Message::Kind::kVoteRequest, 1, 0);
  deliver(ab, Message::Kind::kVoteRequest, 1, 2);
  Cluster ba = copy(root);
  deliver(ba, Message::Kind::kVoteRequest, 1, 2);
  deliver(ba, Message::Kind::kVoteRequest, 1, 0);

  EXPECT_NE(queue_order(ab), queue_order(ba));  // the replies swapped places
  EXPECT_EQ(stream(ab), stream(ba));
  EXPECT_EQ(ab.model_fingerprint(), ba.model_fingerprint());
  EXPECT_NE(stream(ab), stream(root));
  EXPECT_NE(ab.model_fingerprint(), root.model_fingerprint());
}

TEST_F(ModelEncoding, FifoOrderWithinOneDirectionIsPartOfTheState) {
  // Reads from both ends reach the middle site in either order; each
  // arrival queues a reply back and a forward onward, so the direction
  // 1 -> 2 holds the same two messages in opposite FIFO order.
  Cluster root = make();
  root.model_submit_access(0, /*is_read=*/true);
  root.model_submit_access(2, /*is_read=*/true);
  Cluster x = copy(root);
  deliver(x, Message::Kind::kVoteRequest, 0, 1);
  deliver(x, Message::Kind::kVoteRequest, 2, 1);
  Cluster y = copy(root);
  deliver(y, Message::Kind::kVoteRequest, 2, 1);
  deliver(y, Message::Kind::kVoteRequest, 0, 1);

  const auto head_to_2 = [](const Cluster& c) {
    for (const Cluster::ModelEvent& e : c.model_enabled_events()) {
      if (e.kind == Cluster::ModelEventKind::kDelivery && e.target == 2) {
        return e.message;
      }
    }
    ADD_FAILURE() << "nothing in flight towards site 2";
    return Message{};
  };
  const Message hx = head_to_2(x);
  const Message hy = head_to_2(y);
  EXPECT_TRUE(hx.kind != hy.kind || hx.request != hy.request);
  EXPECT_NE(stream(x), stream(y));
  EXPECT_NE(x.model_fingerprint(), y.model_fingerprint());
}

TEST_F(ModelEncoding, MixedQueueEncodesTheSameAtAnyQueuePosition) {
  // A write at site 0 wins site 1's vote; then its coordinator moving to
  // phase 2 (a new timer and a commit request) commutes with site 2
  // answering the forwarded request. The two orders leave the timer and
  // the deliveries at different queue positions. (Retry events cannot
  // occur here: model mode forces max_retries to 0.)
  Cluster root = make();
  root.model_submit_access(0, /*is_read=*/false);
  deliver(root, Message::Kind::kVoteRequest, 0, 1);
  Cluster ab = copy(root);
  deliver(ab, Message::Kind::kVoteReply, 1, 0);
  deliver(ab, Message::Kind::kVoteRequest, 1, 2);
  Cluster ba = copy(root);
  deliver(ba, Message::Kind::kVoteRequest, 1, 2);
  deliver(ba, Message::Kind::kVoteReply, 1, 0);

  const auto has_timer = [](const Cluster& c) {
    for (const Cluster::ModelEvent& e : c.model_enabled_events()) {
      if (e.kind == Cluster::ModelEventKind::kTimer) return true;
    }
    return false;
  };
  ASSERT_TRUE(has_timer(ab));
  EXPECT_NE(queue_order(ab), queue_order(ba));
  EXPECT_EQ(stream(ab), stream(ba));
  EXPECT_EQ(ab.model_fingerprint(), ba.model_fingerprint());
}

// Encoding golden: a seeded random walk through a shipped scope, folding
// every state's canonical word stream and its enabled-event list into one
// digest through Cluster::model_hash. A change to the protocol's state
// layout must leave both byte-identical, so the digest is pinned.
Cluster::Params model_params(const Scope& scope) {
  Cluster::Params params;
  params.model_mode = true;
  params.spec = scope.chaos.has_quorum
                    ? scope.chaos.quorum
                    : quora::quorum::majority(
                          scope.chaos.system->topology.total_votes());
  return params;
}

/// Appends every field of `e` but its queue handle `seq`.
void append_event(std::vector<std::uint64_t>& out, const Cluster::ModelEvent& e) {
  const Message& m = e.message;
  out.insert(out.end(),
             {static_cast<std::uint64_t>(e.kind), e.target, e.index, e.request,
              static_cast<std::uint64_t>(e.phase),
              static_cast<std::uint64_t>(m.kind), m.is_write ? 1u : 0u,
              m.request, m.coordinator, m.sender, m.replier, m.votes,
              m.version, m.value, m.qr_version, m.qr_r, m.qr_w});
}

std::array<std::uint64_t, 2> walk_digest(const Scope& scope,
                                         std::uint64_t seed,
                                         std::uint64_t steps) {
  const Cluster root(scope.chaos.system->topology, model_params(scope),
                     /*seed=*/1);
  Cluster cur = root;
  cur.model_rebind();
  quora::rng::Xoshiro256ss gen(seed);
  std::array<std::uint64_t, 2> digest{};
  std::vector<std::uint64_t> words;
  std::uint32_t submitted = 0;
  std::uint32_t faulted = 0;
  std::uint64_t depth = 0;
  for (std::uint64_t step = 0; step < steps; ++step) {
    const std::vector<Cluster::ModelEvent> events = cur.model_enabled_events();
    words.assign(digest.begin(), digest.end());
    cur.model_serialize(words);
    words.push_back(events.size());
    for (const Cluster::ModelEvent& e : events) append_event(words, e);
    digest = Cluster::model_hash(words);

    std::vector<std::uint32_t> accesses;
    for (std::uint32_t i = 0; i < scope.accesses.size(); ++i) {
      if (((submitted >> i) & 1u) == 0) accesses.push_back(i);
    }
    std::vector<std::uint32_t> faults;
    for (std::uint32_t i = 0; i < scope.faults.size(); ++i) {
      if (((faulted >> i) & 1u) == 0) faults.push_back(i);
    }
    const std::size_t n = accesses.size() + faults.size() + events.size();
    if (n == 0 || depth >= scope.max_depth) {
      cur = root;
      cur.model_rebind();
      submitted = faulted = 0;
      depth = 0;
      continue;
    }
    std::size_t pick = static_cast<std::size_t>(gen() % n);
    if (pick < accesses.size()) {
      const quora::fault::Action& a = scope.accesses[accesses[pick]];
      cur.model_submit_access(a.site, a.is_read);
      submitted |= 1u << accesses[pick];
    } else if ((pick -= accesses.size()) < faults.size()) {
      for (const quora::fault::Action& a : scope.faults[faults[pick]]) {
        cur.model_apply_fault(a);
      }
      faulted |= 1u << faults[pick];
    } else {
      EXPECT_TRUE(cur.model_step_event(events[pick - faults.size()].seq));
    }
    ++depth;
  }
  return digest;
}

TEST(ModelEncodingGolden, RandomWalkDigestIsPinned) {
  const Scope line = load_example("tiny_line.model");
  Scope crash = load_example("mutation_crash_cleanup.model");
  crash.chaos.mutations.clear();
  const std::array<std::uint64_t, 2> want_line{0x597b3d1df497729eull,
                                                0x8af81b76c5b934faull};
  const std::array<std::uint64_t, 2> want_crash{0xd5a41bde6848fc37ull,
                                                 0x3a3d7ec41b6eea53ull};
  EXPECT_EQ(walk_digest(line, 0x60D1ull, 5'000), want_line);
  EXPECT_EQ(walk_digest(crash, 0x60D1ull, 5'000), want_crash);
}

// Snapshot by assignment: the explorer copy-assigns each child over the
// cluster that held the previous state at that depth, which may be larger
// in every respect. The result must be indistinguishable from a
// copy-constructed clone, now and after the same further steps.
class ModelSnapshot : public ::testing::Test {
protected:
  // A 4-site ring; quorum (2, 3) lets reassign (1, 4) install.
  const Scope scope_ = parse("quorum 2 3\nsites 4\nring\nat 1 access 0 write\n");

  Cluster make() const {
    return Cluster(scope_.chaos.system->topology, model_params(scope_),
                   /*seed=*/1);
  }
  /// Fires up to `steps` enabled events picked by `gen`.
  static void fire(Cluster& c, quora::rng::Xoshiro256ss& gen, int steps) {
    for (int i = 0; i < steps; ++i) {
      const std::vector<Cluster::ModelEvent> events = c.model_enabled_events();
      if (events.empty()) return;
      ASSERT_TRUE(c.model_step_event(events[gen() % events.size()].seq));
    }
  }
  /// Fires up to `steps` enabled events, each time the first delivery
  /// if one is in flight, else the first event. Unbounded, this settles
  /// the cluster: an access submitted alone on a healthy ring is granted.
  static void deliver(Cluster& c, int steps = 1'000) {
    for (int i = 0; i < steps; ++i) {
      const std::vector<Cluster::ModelEvent> events = c.model_enabled_events();
      if (events.empty()) return;
      const auto delivery = std::find_if(
          events.begin(), events.end(), [](const Cluster::ModelEvent& e) {
            return e.kind == Cluster::ModelEventKind::kDelivery;
          });
      ASSERT_TRUE(c.model_step_event(
          (delivery != events.end() ? *delivery : events.front()).seq));
    }
  }
  /// Every field of every enabled event, in enumeration order.
  static std::vector<std::uint64_t> events(const Cluster& c) {
    std::vector<std::uint64_t> out;
    for (const Cluster::ModelEvent& e : c.model_enabled_events()) {
      out.push_back(e.seq);
      append_event(out, e);
    }
    return out;
  }
  static void expect_same_histories(const Cluster& a, const Cluster& b) {
    ASSERT_EQ(a.outcomes().size(), b.outcomes().size());
    for (std::size_t i = 0; i < a.outcomes().size(); ++i) {
      const quora::msg::AccessOutcome& x = a.outcomes()[i];
      const quora::msg::AccessOutcome& y = b.outcomes()[i];
      EXPECT_EQ(std::tie(x.submit_time, x.decide_time, x.origin, x.is_read,
                         x.granted, x.deny_reason, x.version, x.value,
                         x.votes_collected, x.qr_version),
                std::tie(y.submit_time, y.decide_time, y.origin, y.is_read,
                         y.granted, y.deny_reason, y.version, y.value,
                         y.votes_collected, y.qr_version))
          << "outcome " << i;
    }
    ASSERT_EQ(a.commits().size(), b.commits().size());
    for (std::size_t i = 0; i < a.commits().size(); ++i) {
      EXPECT_EQ(a.commits()[i].version, b.commits()[i].version);
      EXPECT_EQ(a.commits()[i].decide_time, b.commits()[i].decide_time);
    }
    ASSERT_EQ(a.installs().size(), b.installs().size());
    for (std::size_t i = 0; i < a.installs().size(); ++i) {
      EXPECT_EQ(a.installs()[i].version, b.installs()[i].version);
      EXPECT_EQ(a.installs()[i].origin, b.installs()[i].origin);
      EXPECT_EQ(a.installs()[i].spec, b.installs()[i].spec);
    }
  }
};

TEST_F(ModelSnapshot, CopyAssignmentOverADirtierStateIsCopyConstruction) {
  // The destination: two writes committed, an install of (3, 3), then
  // three open coordinations, two of them at site 0, whose replies have
  // started to arrive.
  Cluster dirty = make();
  dirty.model_submit_access(0, /*is_read=*/false);
  deliver(dirty);
  dirty.model_submit_access(2, /*is_read=*/false);
  deliver(dirty);
  quora::fault::Action reassign;
  reassign.kind = quora::fault::Action::Kind::kReassign;
  reassign.site = 1;
  reassign.next = quora::quorum::QuorumSpec{3, 3};
  dirty.model_apply_fault(reassign);
  dirty.model_submit_access(0, /*is_read=*/false);
  dirty.model_submit_access(0, /*is_read=*/true);
  dirty.model_submit_access(3, /*is_read=*/false);
  deliver(dirty, 8);

  // The source: one write just submitted at site 0, where the
  // destination's coordinator table holds more entries and more repliers.
  Cluster source = make();
  source.model_submit_access(0, /*is_read=*/false);

  ASSERT_GT(dirty.outcomes().size(), source.outcomes().size());
  ASSERT_GT(dirty.commits().size(), source.commits().size());
  ASSERT_GT(dirty.installs().size(), source.installs().size());
  ASSERT_GT(stream(dirty).size(), stream(source).size());
  ASSERT_GT(events(dirty).size(), events(source).size());

  Cluster constructed = source;
  constructed.model_rebind();
  Cluster& assigned = dirty;
  assigned = source;
  assigned.model_rebind();
  EXPECT_EQ(stream(assigned), stream(constructed));
  EXPECT_EQ(events(assigned), events(constructed));
  expect_same_histories(assigned, constructed);

  // The same further steps on both: more accesses, a reassignment, and
  // every event to quiescence.
  reassign.next = quora::quorum::QuorumSpec{1, 4};
  for (Cluster* c : {&assigned, &constructed}) {
    quora::rng::Xoshiro256ss same(0x5A3E);
    c->model_submit_access(2, /*is_read=*/true);
    fire(*c, same, 10);
    c->model_apply_fault(reassign);
    c->model_submit_access(3, /*is_read=*/false);
    fire(*c, same, 400);
    EXPECT_TRUE(c->model_enabled_events().empty());
  }
  EXPECT_EQ(stream(assigned), stream(constructed));
  expect_same_histories(assigned, constructed);
  EXPECT_GE(constructed.outcomes().size(), 3u);
}

TEST(ModelExplorer, ReplayOfAnEmptyTraceIsSafe) {
  const Scope scope = parse(kTinyScope);
  const Explorer explorer(scope);
  EXPECT_FALSE(explorer.replay({}).has_value());
}

} // namespace
