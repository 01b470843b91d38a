// Tests for the dyn module: the Jajodia-Mutchler dynamic-voting baseline
// and the adaptive reassignment agent closing the §4.3 loop.

#include <gtest/gtest.h>

#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "core/reassign.hpp"
#include "dyn/adaptive.hpp"
#include "dyn/dynamic_voting.hpp"
#include "net/builders.hpp"
#include "quorum/quorum_spec.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sim/simulator.hpp"

namespace quora::dyn {
namespace {

TEST(DynamicVoting, FullNetworkCommits) {
  const net::Topology topo = net::make_ring(5);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);

  EXPECT_TRUE(dv.attempt_update(tracker, 0));
  EXPECT_EQ(dv.committed_updates(), 1u);
  for (net::SiteId s = 0; s < 5; ++s) {
    EXPECT_EQ(dv.state(s).version, 1u);
    EXPECT_EQ(dv.state(s).cardinality, 5u);
  }
}

TEST(DynamicVoting, MinorityOfLastElectorateCannotCommit) {
  const net::Topology topo = net::make_ring(5);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);
  ASSERT_TRUE(dv.attempt_update(tracker, 0));  // electorate = all 5

  // Partition into {1,2} and {3,4,0}: only the 3-side has a majority of 5.
  live.set_link_up(0, false);
  live.set_link_up(2, false);
  EXPECT_FALSE(dv.attempt_update(tracker, 1));
  EXPECT_TRUE(dv.attempt_update(tracker, 3));
  EXPECT_EQ(dv.committed_updates(), 2u);
}

TEST(DynamicVoting, ElectorateShrinksWithCommits) {
  // The hallmark of dynamic voting: after {3,4,0} commits (cardinality
  // now 3), a further split leaving {3,4} still commits — 2 of the last
  // electorate of 3 is a majority, even though it is 2 of 5 copies.
  const net::Topology topo = net::make_ring(5);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);
  ASSERT_TRUE(dv.attempt_update(tracker, 0));
  live.set_link_up(0, false);
  live.set_link_up(2, false);  // {1,2} vs {3,4,0}
  ASSERT_TRUE(dv.attempt_update(tracker, 3));

  live.set_site_up(0, false);  // {3,4} remain from the electorate of 3
  EXPECT_TRUE(dv.attempt_update(tracker, 3));
  EXPECT_EQ(dv.state(3).cardinality, 2u);

  // A static majority protocol would have denied that: 2 of 5 votes.
  EXPECT_FALSE(quorum::majority(5).allows_write(2));
}

TEST(DynamicVoting, StaleSideStaysBlockedUntilRejoin) {
  const net::Topology topo = net::make_ring(5);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);
  ASSERT_TRUE(dv.attempt_update(tracker, 0));
  live.set_link_up(0, false);
  live.set_link_up(2, false);  // {1,2} vs {3,4,0}
  ASSERT_TRUE(dv.attempt_update(tracker, 3));
  ASSERT_TRUE(dv.attempt_update(tracker, 3));

  // {1,2} holds version 1 with cardinality 5 — never a majority of 5.
  EXPECT_FALSE(dv.attempt_update(tracker, 1));
  // Heal: the merged component carries version 3, electorate 3; all 5
  // sites present > 3/2 — commit succeeds and re-expands the electorate.
  live.set_link_up(0, true);
  live.set_link_up(2, true);
  live.set_site_up(0, true);
  EXPECT_TRUE(dv.attempt_update(tracker, 1));
  EXPECT_EQ(dv.state(1).cardinality, 5u);
}

TEST(DynamicVoting, DownOriginFails) {
  const net::Topology topo = net::make_ring(4);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);
  live.set_site_up(2, false);
  EXPECT_FALSE(dv.attempt_update(tracker, 2));
}

TEST(DynamicVoting, VersionsNeverRegress) {
  rng::Xoshiro256ss gen(55);
  const net::Topology topo = net::make_ring_with_chords(9, 2);
  conn::LiveNetwork live(topo);
  const conn::ComponentTracker tracker(live);
  DynamicVoting dv(topo);

  std::uint64_t last_committed = 0;
  for (int step = 0; step < 10'000; ++step) {
    const double u = gen.next_double();
    if (u < 0.4) {
      const auto s =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      live.set_site_up(s, !live.is_site_up(s));
    } else if (u < 0.6) {
      const auto l =
          static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
      live.set_link_up(l, !live.is_link_up(l));
    } else {
      const auto origin =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      dv.attempt_update(tracker, origin);
      EXPECT_GE(dv.committed_updates(), last_committed);
      last_committed = dv.committed_updates();
      // Version monotone and consistent with the commit counter.
      std::uint64_t max_version = 0;
      for (net::SiteId s = 0; s < topo.site_count(); ++s) {
        max_version = std::max(max_version, dv.state(s).version);
      }
      EXPECT_EQ(max_version, dv.committed_updates());
    }
  }
  EXPECT_GT(dv.committed_updates(), 100u);
}

TEST(AdaptiveReassigner, EstimatesAlphaFromTheStream) {
  const net::Topology topo = net::make_ring(15);
  core::QuorumReassignment qr(topo, quorum::majority(15));
  AdaptiveReassigner agent(topo, qr);

  sim::AccessSpec spec;
  spec.alpha = 0.8;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 31);
  sim.add_access_observer(&agent);
  sim.run_accesses(20'000);
  EXPECT_NEAR(agent.estimated_alpha(), 0.8, 0.05);
}

TEST(AdaptiveReassigner, TracksAlphaShifts) {
  const net::Topology topo = net::make_ring(15);
  core::QuorumReassignment qr(topo, quorum::majority(15));
  AdaptiveReassigner agent(topo, qr);

  sim::AccessSpec spec;
  spec.alpha = 0.9;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 32);
  sim.add_access_observer(&agent);
  sim.run_accesses(30'000);
  EXPECT_GT(agent.estimated_alpha(), 0.8);
  sim.set_access_alpha(0.1);
  sim.run_accesses(30'000);
  // Exponential decay must have pulled the estimate down near 0.1.
  EXPECT_LT(agent.estimated_alpha(), 0.2);
}

TEST(AdaptiveReassigner, InstallsTowardReadOptimumOnReadHeavyStream) {
  const net::Topology topo = net::make_ring(25);
  core::QuorumReassignment qr(topo, quorum::majority(25));
  AdaptiveReassigner::Options options;
  options.min_write_availability = 0.0;  // unconstrained — clearest signal
  AdaptiveReassigner agent(topo, qr, options);

  sim::AccessSpec spec;
  spec.alpha = 0.95;  // reads dominate: ring optimum is tiny q_r
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 33);
  sim.add_access_observer(&agent);
  sim.run_accesses(60'000);

  EXPECT_GT(agent.installs(), 0u);
  const auto eff = qr.effective(sim.tracker(), 0);
  EXPECT_LT(eff.spec.q_r, 13u);  // moved below the initial majority
  EXPECT_GT(eff.version, 1u);
}

TEST(AdaptiveReassigner, RespectsWriteFloorInItsInstalls) {
  const net::Topology topo = net::make_ring_with_chords(25, 4);
  core::QuorumReassignment qr(topo, quorum::majority(25));
  AdaptiveReassigner::Options options;
  options.min_write_availability = 0.30;
  AdaptiveReassigner agent(topo, qr, options);

  sim::AccessSpec spec;
  spec.alpha = 0.95;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 34);
  sim.add_access_observer(&agent);
  sim.run_accesses(60'000);

  // Whatever it installed, it must never have installed read-one/
  // write-all (whose write availability on this network is ~0).
  const auto eff = qr.effective(sim.tracker(), 0);
  EXPECT_GT(eff.spec.q_r, 1u);
}

TEST(AdaptiveReassigner, NoInstallsBeforeMinSamples) {
  const net::Topology topo = net::make_ring(15);
  core::QuorumReassignment qr(topo, quorum::majority(15));
  AdaptiveReassigner::Options options;
  options.min_samples = 1'000'000;  // unreachable in this run
  AdaptiveReassigner agent(topo, qr, options);

  sim::AccessSpec spec;
  spec.alpha = 0.95;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 35);
  sim.add_access_observer(&agent);
  sim.run_accesses(30'000);
  EXPECT_EQ(agent.installs(), 0u);
  EXPECT_EQ(qr.latest_version(), 1u);
}

TEST(AdaptiveReassigner, NoFloorLocksInReadOneWriteAll) {
  // §5.4's pathology: with no write floor a read-heavy phase installs
  // q_w = T, and every later install needs a write quorum under that
  // assignment — the whole network, which a 45-site ring at 90%
  // reliability essentially never is.
  const net::Topology topo = net::make_ring(45);
  const net::Vote total = topo.total_votes();
  core::QuorumReassignment qr(topo, quorum::majority(total));
  sim::SimConfig config;
  config.reliability = 0.90;
  AdaptiveReassigner::Options options;
  options.objective = adapt::AdaptiveController::Objective::kAvailability;
  options.site_reliability = config.reliability;
  AdaptiveReassigner agent(topo, qr, options);

  sim::AccessSpec spec;
  spec.alpha = 0.95;
  sim::Simulator sim(topo, config, spec, 36);
  sim.add_access_observer(&agent);
  sim.run_accesses(40'000);
  ASSERT_GT(agent.installs(), 0u);
  EXPECT_EQ(qr.effective(sim.tracker(), 0).spec.q_w, total);

  const std::uint64_t installs = agent.installs();
  const std::uint64_t version = qr.latest_version();
  const std::uint64_t recommended = agent.controller().installs_recommended();
  sim.set_access_alpha(0.05);
  sim.run_accesses(40'000);
  // The controller keeps asking to leave read-one/write-all; no install
  // gets through.
  EXPECT_GT(agent.controller().installs_recommended(), recommended);
  EXPECT_EQ(agent.installs(), installs);
  EXPECT_EQ(qr.latest_version(), version);
}

TEST(AdaptiveReassigner, HoldsOnAnInfeasibleWriteFloor) {
  // No assignment reaches 99% write availability on a ring, so the
  // controller reports the floor infeasible and keeps the present
  // assignment rather than installing the unconstrained optimum.
  const net::Topology topo = net::make_ring(25);
  core::QuorumReassignment qr(topo, quorum::majority(25));
  AdaptiveReassigner::Options options;
  options.min_write_availability = 0.99;
  AdaptiveReassigner agent(topo, qr, options);

  sim::AccessSpec spec;
  spec.alpha = 0.95;
  sim::Simulator sim(topo, sim::SimConfig{}, spec, 37);
  sim.add_access_observer(&agent);
  sim.run_accesses(60'000);
  EXPECT_EQ(agent.installs(), 0u);
  EXPECT_EQ(qr.latest_version(), 1u);
}

} // namespace
} // namespace quora::dyn
