// Tests for the message-level protocol implementation: flooding,
// two-phase writes, timeouts, failure races, and the real-time
// consistency guarantee against the instantaneous oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "fault/fault_plan.hpp"
#include "msg/cluster.hpp"
#include "net/builders.hpp"

namespace quora::msg {
namespace {

Cluster::Params reliable_params(net::Vote total, net::Vote q_r) {
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(total, q_r);
  p.mean_hop_latency = 0.001;
  p.phase_timeout = 2.0;
  p.alpha = 0.5;
  p.config.reliability = 0.999999;  // effectively failure-free
  p.config.rho = 1e-9;
  return p;
}

TEST(Cluster, ValidatesParams) {
  const net::Topology topo = net::make_ring(5);
  Cluster::Params p = reliable_params(5, 2);
  p.spec = quorum::QuorumSpec{2, 3};  // 2+3 = T: invalid
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.mean_hop_latency = 0.0;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.alpha = 2.0;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.lease_timeout = -1.0;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.phase_timeout = -0.5;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.max_retries = Cluster::Params::kMaxRetryBudget + 1;
  EXPECT_THROW(Cluster(topo, p, 1), std::invalid_argument);
  p = reliable_params(5, 2);
  p.max_retries = Cluster::Params::kMaxRetryBudget;  // the boundary is legal
  EXPECT_NO_THROW(Cluster(topo, p, 1));
}

TEST(Cluster, FailureFreeNetworkGrantsEverything) {
  const net::Topology topo = net::make_ring_with_chords(9, 2);
  Cluster cluster(topo, reliable_params(9, 4), 7);
  cluster.run_decided_accesses(500);
  EXPECT_EQ(cluster.outcomes().size(), 500u);
  // Concurrent writes can still collide on vote leases (the real
  // mutual-exclusion cost the oracle model hides), but with abort-based
  // lease release the loss is tiny.
  EXPECT_GT(cluster.availability(), 0.98);
  EXPECT_DOUBLE_EQ(cluster.oracle_availability(), 1.0);
  EXPECT_GT(cluster.messages_sent(), 1000u);
}

TEST(Cluster, WritesPropagateToReads) {
  const net::Topology topo = net::make_ring(7);
  Cluster cluster(topo, reliable_params(7, 3), 9);
  cluster.run_decided_accesses(400);

  // Some writes committed, and every granted read after the first commit
  // returns a nonzero version/value.
  ASSERT_FALSE(cluster.commits().empty());
  const double first_commit = cluster.commits().front().decide_time;
  std::uint64_t checked = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (o.is_read && o.granted && o.submit_time > first_commit) {
      EXPECT_GT(o.version, 0u);
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST(Cluster, CommitVersionsAreStrictlyIncreasing) {
  const net::Topology topo = net::make_ring_with_chords(9, 2);
  Cluster cluster(topo, reliable_params(9, 4), 11);
  cluster.run_decided_accesses(600);
  const auto& commits = cluster.commits();
  ASSERT_GT(commits.size(), 10u);
  for (std::size_t i = 1; i < commits.size(); ++i) {
    EXPECT_GT(commits[i].version, commits[i - 1].version);
  }
}

TEST(Cluster, DeterministicPerSeed) {
  const net::Topology topo = net::make_ring(7);
  const auto run = [&](std::uint64_t seed) {
    Cluster cluster(topo, reliable_params(7, 3), seed);
    cluster.run_decided_accesses(300);
    return std::tuple{cluster.availability(), cluster.messages_sent(),
                      cluster.now()};
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Cluster, RealTimeConsistencyUnderFailures) {
  // The headline guarantee: a granted read returns a version at least as
  // new as every write that was *decided committed* before the read was
  // submitted — under the full failure model with in-flight message loss.
  const net::Topology topo = net::make_ring_with_chords(13, 3);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(13, 5);
  p.mean_hop_latency = 0.01;
  p.phase_timeout = 1.0;
  p.alpha = 0.5;
  p.config.reliability = 0.92;  // aggressive failures
  Cluster cluster(topo, p, 13);
  cluster.run_decided_accesses(4'000);

  const auto& commits = cluster.commits();
  std::uint64_t granted_reads = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (!o.is_read || !o.granted) continue;
    ++granted_reads;
    std::uint64_t floor_version = 0;
    for (const auto& c : commits) {
      if (c.decide_time <= o.submit_time) {
        floor_version = std::max(floor_version, c.version);
      }
    }
    EXPECT_GE(o.version, floor_version)
        << "read at t=" << o.submit_time << " missed a committed write";
  }
  EXPECT_GT(granted_reads, 400u);
  EXPECT_GT(commits.size(), 100u);
}

TEST(Cluster, AvailabilityConvergesToOracleAtLowLatency) {
  const net::Topology topo = net::make_ring_with_chords(13, 3);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(13, 5);
  p.alpha = 0.5;
  p.config.reliability = 0.94;
  p.phase_timeout = 1.0;

  p.mean_hop_latency = 0.0005;  // vanishing latency
  Cluster fast(topo, p, 21);
  fast.run_decided_accesses(6'000);
  EXPECT_NEAR(fast.availability(), fast.oracle_availability(), 0.04);

  p.mean_hop_latency = 0.25;  // slow network: timeouts and races bite
  Cluster slow(topo, p, 21);
  slow.run_decided_accesses(6'000);
  EXPECT_LT(slow.availability(), slow.oracle_availability() - 0.02);
}

TEST(Cluster, PartitionDeniesMinorityCoordinators) {
  // With failures disabled but the topology pre-partitioned by parameter
  // choice we can't cut links directly (the cluster owns its network), so
  // instead: a harsh-failure run must contain denied accesses whose
  // oracle also denied — and *no* case where the message protocol grants
  // while the oracle's component lacked the votes at submit time... the
  // message protocol may only be MORE conservative than the oracle
  // (votes can be lost to races, never conjured).
  const net::Topology topo = net::make_ring(11);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(11, 4);
  p.mean_hop_latency = 0.01;
  p.phase_timeout = 1.0;
  p.alpha = 0.5;
  p.config.reliability = 0.90;
  Cluster cluster(topo, p, 33);
  cluster.run_decided_accesses(4'000);

  std::uint64_t conservative = 0;
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (o.granted) {
      // Granted by messages => a quorum actually replied; the oracle at
      // submit time must have seen those votes reachable too, except for
      // recoveries mid-flight. Allow the rare recovery race but count it.
      if (!o.oracle_granted) ++conservative;
    }
  }
  // Mid-coordination recoveries can add votes the submit-time oracle
  // lacked, but they must be rare.
  EXPECT_LT(static_cast<double>(conservative),
            0.01 * static_cast<double>(cluster.outcomes().size()));
}

TEST(Cluster, SlowNetworkTimesOutInsteadOfHanging) {
  const net::Topology topo = net::make_ring(9);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(9, 4);
  p.mean_hop_latency = 2.0;   // hops slower than the timeout
  p.phase_timeout = 0.5;
  p.alpha = 0.5;
  p.config.reliability = 0.999999;
  p.config.rho = 1e-9;
  Cluster cluster(topo, p, 17);
  cluster.run_decided_accesses(300);
  // Everything decides (no hangs), and most non-trivial quorums fail.
  EXPECT_EQ(cluster.outcomes().size(), 300u);
  EXPECT_LT(cluster.availability(), 0.2);
  EXPECT_DOUBLE_EQ(cluster.oracle_availability(), 1.0);
}

TEST(Cluster, WriteConflictsAreTheOnlyFailureFreeLoss) {
  // In a failure-free network every denial must be a write (lease
  // conflict or fast-deny) — reads have nothing to collide on.
  const net::Topology topo = net::make_ring_with_chords(9, 2);
  Cluster cluster(topo, reliable_params(9, 4), 23);
  cluster.run_decided_accesses(2'000);
  for (const AccessOutcome& o : cluster.outcomes()) {
    if (!o.granted) {
      EXPECT_FALSE(o.is_read) << "a read was denied without failures";
    }
  }
}

TEST(Cluster, MessageVolumeScalesWithTopology) {
  // Floods visit each link a bounded number of times per coordination;
  // denser topologies pay proportionally more messages.
  const net::Topology sparse = net::make_ring(15);
  const net::Topology dense = net::make_ring_with_chords(15, 30);
  Cluster a(sparse, reliable_params(15, 7), 29);
  Cluster b(dense, reliable_params(15, 7), 29);
  a.run_decided_accesses(200);
  b.run_decided_accesses(200);
  EXPECT_GT(b.messages_sent(), a.messages_sent());
  // Sanity bound: per access at most a small multiple of 2E messages per
  // round across <= 3 rounds plus relays.
  EXPECT_LT(a.messages_sent(), 200u * 2u * 15u * 12u);
}

TEST(Cluster, OutcomeClockIsMonotoneAndDecidesAfterSubmit) {
  const net::Topology topo = net::make_ring(9);
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(9, 3);
  p.mean_hop_latency = 0.02;
  p.phase_timeout = 0.5;
  p.alpha = 0.5;
  p.config.reliability = 0.93;
  Cluster cluster(topo, p, 41);
  cluster.run_decided_accesses(1'500);
  for (const AccessOutcome& o : cluster.outcomes()) {
    EXPECT_GE(o.decide_time, o.submit_time);
  }
  // Commit log times are nondecreasing (appended at decision time).
  const auto& commits = cluster.commits();
  for (std::size_t i = 1; i < commits.size(); ++i) {
    EXPECT_GE(commits[i].decide_time, commits[i - 1].decide_time);
  }
}

TEST(Cluster, RunDecidedAccessesThrowsInModelMode) {
  const net::Topology topo = net::make_ring(5);
  Cluster::Params p = reliable_params(5, 2);
  p.model_mode = true;
  Cluster cluster(topo, p, 1);
  cluster.model_submit_access(0, /*is_read=*/true);
  EXPECT_THROW(cluster.run_decided_accesses(1), std::logic_error);
}

TEST(Cluster, RunUntilThrowsInModelMode) {
  const net::Topology topo = net::make_ring(5);
  Cluster::Params p = reliable_params(5, 2);
  p.model_mode = true;
  Cluster cluster(topo, p, 1);
  cluster.model_submit_access(0, /*is_read=*/true);
  const double before = cluster.now();
  EXPECT_THROW(cluster.run_until(100.0), std::logic_error);
  EXPECT_EQ(cluster.now(), before);  // the logical clock did not jump
}

// Parameters of the mid-run copy tests: retries, and crashes that clear
// flood windows and coordinator tables mid-run.
Cluster::Params mid_run_params() {
  Cluster::Params p;
  p.spec = quorum::from_read_quorum(13, 5);
  p.mean_hop_latency = 0.01;
  p.phase_timeout = 0.3;
  p.max_retries = 2;
  p.config.reliability = 0.92;
  return p;
}

/// Same outcomes, message count and commit log.
void expect_same_run(const Cluster& copy, const Cluster& original) {
  ASSERT_EQ(copy.outcomes().size(), original.outcomes().size());
  for (std::size_t i = 0; i < original.outcomes().size(); ++i) {
    const AccessOutcome& a = original.outcomes()[i];
    const AccessOutcome& b = copy.outcomes()[i];
    EXPECT_EQ(a.submit_time, b.submit_time) << "outcome " << i;
    EXPECT_EQ(a.decide_time, b.decide_time) << "outcome " << i;
    EXPECT_EQ(a.origin, b.origin) << "outcome " << i;
    EXPECT_EQ(a.granted, b.granted) << "outcome " << i;
    EXPECT_EQ(a.deny_reason, b.deny_reason) << "outcome " << i;
    EXPECT_EQ(a.version, b.version) << "outcome " << i;
    EXPECT_EQ(a.value, b.value) << "outcome " << i;
  }
  EXPECT_EQ(copy.messages_sent(), original.messages_sent());
  ASSERT_EQ(copy.commits().size(), original.commits().size());
  for (std::size_t i = 0; i < original.commits().size(); ++i) {
    EXPECT_EQ(copy.commits()[i].version, original.commits()[i].version);
    EXPECT_EQ(copy.commits()[i].decide_time, original.commits()[i].decide_time);
  }
}

// A by-value copy taken mid-run carries the in-flight events (their slab,
// its free slots and the key heap) and must replay exactly what the
// original does from there on.
TEST(Cluster, MidRunCopyReplaysLikeTheOriginal) {
  const net::Topology topo = net::make_ring_with_chords(13, 3);
  Cluster original(topo, mid_run_params(), 77);
  original.run_until(40.0);
  ASSERT_GT(original.outcomes().size(), 100u);

  Cluster copy = original;
  copy.model_rebind();
  copy.run_until(120.0);  // the copy runs first: no shared state leaks back
  original.run_until(120.0);

  expect_same_run(copy, original);
  EXPECT_GT(original.outcomes().size(), 300u);
}

// The same through copy-assignment over a cluster that ran further on
// another seed (longer logs, a bigger slab and heap, wider flood windows
// and coordinator tables): assignment must leave nothing of it behind.
TEST(Cluster, MidRunAssignmentReplaysLikeTheOriginal) {
  const net::Topology topo = net::make_ring_with_chords(13, 3);
  Cluster original(topo, mid_run_params(), 77);
  original.run_until(40.0);
  Cluster copy(topo, mid_run_params(), 78);
  copy.run_until(90.0);
  ASSERT_GT(copy.outcomes().size(), original.outcomes().size());
  ASSERT_GT(copy.messages_sent(), original.messages_sent());

  copy = original;
  copy.model_rebind();
  copy.run_until(120.0);
  original.run_until(120.0);

  expect_same_run(copy, original);
  EXPECT_GT(original.outcomes().size(), 300u);
}

// A flood that reaches a site after its immediate restart can belong to
// a request older than anything the site has seen since: its key lies
// below the site's flood window. The site must take part once (reply
// and forward), drop later copies, and relay replies along the parent
// link that copy arrived on. Driven step by step through the model
// interface on sites 0..4: site 1 (the restarting relay) joins 0, 2, 3
// and the leaf 4; 2 and 3 also join 0.
class FloodBelowWindow : public ::testing::Test {
protected:
  // Links: 0 = 0-1, 1 = 0-2, 2 = 0-3, 3 = 1-2, 4 = 1-3, 5 = 1-4.
  const net::Topology topo_{
      "relay", 5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {1, 4}}};

  Cluster make() const {
    Cluster::Params p;
    p.model_mode = true;
    p.spec = quorum::QuorumSpec{3, 3};
    return Cluster(topo_, p, 1);
  }
  /// Fires the enabled delivery of `kind` for `request` from `sender` to
  /// `target`.
  static void deliver(Cluster& c, Message::Kind kind, std::uint64_t request,
                      net::SiteId sender, net::SiteId target) {
    for (const Cluster::ModelEvent& e : c.model_enabled_events()) {
      if (e.kind == Cluster::ModelEventKind::kDelivery && e.target == target &&
          e.message.kind == kind && e.message.request == request &&
          e.message.sender == sender) {
        ASSERT_TRUE(c.model_step_event(e.seq));
        return;
      }
    }
    FAIL() << "no enabled delivery " << sender << " -> " << target;
  }
  /// Fires every delivery queued from `sender` to `target`, in FIFO
  /// order, and returns them as (kind, request, replier).
  static std::vector<std::tuple<Message::Kind, std::uint64_t, net::SiteId>>
  drain(Cluster& c, net::SiteId sender, net::SiteId target) {
    std::vector<std::tuple<Message::Kind, std::uint64_t, net::SiteId>> out;
    for (bool fired = true; fired;) {
      fired = false;
      for (const Cluster::ModelEvent& e : c.model_enabled_events()) {
        if (e.kind == Cluster::ModelEventKind::kDelivery &&
            e.target == target && e.message.sender == sender) {
          out.emplace_back(e.message.kind, e.message.request, e.message.replier);
          fired = c.model_step_event(e.seq);
          break;
        }
      }
    }
    return out;
  }
  static fault::Action site_action(fault::Action::Kind kind, net::SiteId s) {
    fault::Action a;
    a.kind = kind;
    a.site = s;
    return a;
  }
};

TEST_F(FloodBelowWindow, LateOlderFloodIsDedupedAndRelayedAfterRestart) {
  using K = Message::Kind;
  Cluster c = make();
  c.model_submit_access(0, /*is_read=*/true);  // request 1
  deliver(c, K::kVoteRequest, 1, 0, 2);        // 2 forwards to 1 over link 3
  deliver(c, K::kVoteRequest, 1, 0, 3);        // 3 forwards to 1 over link 4
  deliver(c, K::kVoteRequest, 1, 0, 1);        // 1 forwards to 4 over link 5

  // Crash with immediate restart: site 1 forgets every flood.
  c.model_apply_fault(site_action(fault::Action::Kind::kSiteDown, 1));
  c.model_apply_fault(site_action(fault::Action::Kind::kSiteUp, 1));

  // Request 2 reaches site 1 first, so its key opens the new window.
  c.model_submit_access(0, /*is_read=*/true);
  deliver(c, K::kVoteRequest, 2, 0, 1);

  // The late copy of request 1 from site 2 lies below the window: site 1
  // answers it and forwards it over its three other links.
  std::uint64_t sent = c.messages_sent();
  deliver(c, K::kVoteRequest, 1, 2, 1);
  EXPECT_EQ(c.messages_sent() - sent, 1u + 3u);

  // The copy from site 3 is a duplicate: nothing leaves site 1.
  sent = c.messages_sent();
  deliver(c, K::kVoteRequest, 1, 3, 1);
  EXPECT_EQ(c.messages_sent(), sent);

  // Site 4's reply to the pre-crash copy is relayed over the parent link
  // site 1 learned after the restart: toward site 2, behind the earlier
  // traffic on that direction.
  deliver(c, K::kVoteRequest, 1, 1, 4);
  sent = c.messages_sent();
  deliver(c, K::kVoteReply, 1, 4, 1);
  EXPECT_EQ(c.messages_sent() - sent, 1u);
  using Sent = std::tuple<Message::Kind, std::uint64_t, net::SiteId>;
  EXPECT_EQ(drain(c, 1, 2), (std::vector<Sent>{{K::kVoteRequest, 1, 0},
                                               {K::kVoteRequest, 2, 0},
                                               {K::kVoteReply, 1, 1},
                                               {K::kVoteReply, 1, 4}}));
}

} // namespace
} // namespace quora::msg
