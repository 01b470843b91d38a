// Tests for the dynamic network view and the component tracker, including
// a randomized cross-check against a naive reference implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "conn/bitwords.hpp"
#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "net/builders.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro256ss.hpp"

namespace quora::conn {
namespace {

TEST(LiveNetwork, StartsAllUp) {
  const net::Topology topo = net::make_ring(5);
  const LiveNetwork live(topo);
  EXPECT_EQ(live.up_site_count(), 5u);
  EXPECT_EQ(live.up_link_count(), 5u);
  for (net::SiteId s = 0; s < 5; ++s) EXPECT_TRUE(live.is_site_up(s));
  for (net::LinkId l = 0; l < 5; ++l) EXPECT_TRUE(live.is_link_up(l));
}

TEST(LiveNetwork, VersionBumpsOnlyOnChange) {
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  const std::uint64_t v0 = live.version();
  EXPECT_FALSE(live.set_site_up(0, true));  // no-op
  EXPECT_EQ(live.version(), v0);
  EXPECT_TRUE(live.set_site_up(0, false));
  EXPECT_EQ(live.version(), v0 + 1);
  EXPECT_FALSE(live.set_site_up(0, false));  // no-op again
  EXPECT_EQ(live.version(), v0 + 1);
  EXPECT_TRUE(live.set_link_up(2, false));
  EXPECT_EQ(live.version(), v0 + 2);
}

TEST(LiveNetwork, ResetAllUpBumpsVersionIffStateChanged) {
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  // Everything is already up: reset must be a no-op for the version, or
  // downstream caches (ComponentTracker) would rebuild for nothing.
  const std::uint64_t v0 = live.version();
  live.reset_all_up();
  EXPECT_EQ(live.version(), v0);
  live.reset_all_up();
  EXPECT_EQ(live.version(), v0);

  // Any real change must bump it exactly once per reset, no matter how
  // many components it restores.
  live.set_site_up(1, false);
  live.set_site_up(3, false);
  live.set_link_up(2, false);
  const std::uint64_t v1 = live.version();
  live.reset_all_up();
  EXPECT_EQ(live.version(), v1 + 1);
  live.reset_all_up();  // idempotent: back to the no-op case
  EXPECT_EQ(live.version(), v1 + 1);
}

TEST(ComponentTracker, CacheRefreshesAcrossResetAllUp) {
  const net::Topology topo = net::make_ring(6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_site_up(2, false);
  live.set_site_up(5, false);
  EXPECT_EQ(tracker.component_count(), 2u);
  live.reset_all_up();
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(0), topo.total_votes());
}

TEST(LiveNetwork, CountsTrackState) {
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  live.set_site_up(1, false);
  live.set_site_up(3, false);
  live.set_link_up(0, false);
  EXPECT_EQ(live.up_site_count(), 3u);
  EXPECT_EQ(live.up_link_count(), 4u);
  live.reset_all_up();
  EXPECT_EQ(live.up_site_count(), 5u);
  EXPECT_EQ(live.up_link_count(), 5u);
}

TEST(LiveNetwork, LinkOperationalNeedsEndpoints) {
  const net::Topology topo = net::make_ring(4);
  LiveNetwork live(topo);
  EXPECT_TRUE(live.link_operational(0));  // link {0,1}
  live.set_site_up(1, false);
  EXPECT_FALSE(live.link_operational(0));
  EXPECT_TRUE(live.is_link_up(0));  // the link itself is still up
}

TEST(ComponentTracker, AllUpIsOneComponent) {
  const net::Topology topo = net::make_ring(8);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(3), 8u);
  EXPECT_EQ(tracker.component_size(3), 8u);
  EXPECT_EQ(tracker.max_component_votes(), 8u);
  EXPECT_TRUE(tracker.connected(0, 7));
}

TEST(ComponentTracker, DownSiteHasNoComponent) {
  const net::Topology topo = net::make_ring(5);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_site_up(2, false);
  EXPECT_EQ(tracker.component_of(2), kNoComponent);
  EXPECT_EQ(tracker.component_votes(2), 0u);
  EXPECT_EQ(tracker.component_size(2), 0u);
  EXPECT_FALSE(tracker.connected(2, 0));
  // The others form a chain (the ring is cut at the dead site).
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(0), 4u);
}

TEST(ComponentTracker, TwoLinkCutsSplitARing) {
  const net::Topology topo = net::make_ring(6);  // links i -- i+1
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_link_up(0, false);  // cut {0,1}
  EXPECT_EQ(tracker.component_count(), 1u);  // one cut: still connected
  live.set_link_up(3, false);  // cut {3,4}
  EXPECT_EQ(tracker.component_count(), 2u);
  EXPECT_TRUE(tracker.connected(1, 3));
  EXPECT_TRUE(tracker.connected(4, 0));
  EXPECT_FALSE(tracker.connected(1, 4));
  EXPECT_EQ(tracker.component_votes(1), 3u);  // {1,2,3}
  EXPECT_EQ(tracker.component_votes(4), 3u);  // {4,5,0}
}

TEST(ComponentTracker, VotesUseAssignment) {
  const net::Topology topo("t", 4, {net::Link{0, 1}, net::Link{2, 3}},
                           std::vector<net::Vote>{5, 1, 2, 0});
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  EXPECT_EQ(tracker.component_count(), 2u);
  EXPECT_EQ(tracker.component_votes(0), 6u);
  EXPECT_EQ(tracker.component_votes(3), 2u);
  EXPECT_EQ(tracker.max_component_votes(), 6u);
}

TEST(ComponentTracker, MembersMatchLabels) {
  const net::Topology topo = net::make_ring(6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_link_up(1, false);
  live.set_link_up(4, false);
  for (net::SiteId s = 0; s < 6; ++s) {
    const std::int32_t comp = tracker.component_of(s);
    ASSERT_NE(comp, kNoComponent);
    const auto members = tracker.members(comp);
    EXPECT_NE(std::find(members.begin(), members.end(), s), members.end());
    EXPECT_EQ(members.size(), tracker.component_size(s));
  }
}

TEST(ComponentTracker, AllSitesDown) {
  const net::Topology topo = net::make_ring(4);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  for (net::SiteId s = 0; s < 4; ++s) live.set_site_up(s, false);
  EXPECT_EQ(tracker.component_count(), 0u);
  EXPECT_EQ(tracker.max_component_votes(), 0u);
}

TEST(ComponentTracker, RecoveryMergesComponents) {
  const net::Topology topo = net::make_ring(6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_site_up(0, false);
  live.set_site_up(3, false);
  EXPECT_EQ(tracker.component_count(), 2u);
  live.set_site_up(0, true);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(1), 5u);
}

TEST(ComponentTracker, RecoveriesAbsorbWithoutRebuild) {
  const net::Topology topo = net::make_ring(8);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  const auto base = tracker.stats();  // construction performs one rebuild

  live.set_link_up(0, false);
  live.set_link_up(4, false);
  EXPECT_EQ(tracker.component_count(), 2u);  // failures: one lazy rebuild
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds + 1);

  // Link recoveries merge via union-find; the rebuild count must not move.
  live.set_link_up(0, true);
  EXPECT_EQ(tracker.component_count(), 1u);
  live.set_link_up(4, true);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(0), 8u);
  EXPECT_EQ(tracker.max_component_votes(), 8u);
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds + 1);
  EXPECT_EQ(tracker.stats().incremental_applies, base.incremental_applies + 2);
}

TEST(ComponentTracker, SiteRecoveryMergesIncrementally) {
  const net::Topology topo = net::make_ring(6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_site_up(0, false);
  live.set_site_up(3, false);
  EXPECT_EQ(tracker.component_count(), 2u);  // chains {1,2} and {4,5}
  const auto after_fail = tracker.stats();

  // Site 0 coming back bridges the two chains through links {5,0},{0,1}.
  live.set_site_up(0, true);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(1), 5u);
  EXPECT_TRUE(tracker.connected(2, 4));
  EXPECT_EQ(tracker.stats().full_rebuilds, after_fail.full_rebuilds);
  EXPECT_EQ(tracker.stats().incremental_applies,
            after_fail.incremental_applies + 1);

  // Structural queries after an incremental merge force a compaction and
  // must agree with the scalar ones.
  const std::int32_t comp = tracker.component_of(1);
  ASSERT_NE(comp, kNoComponent);
  EXPECT_EQ(tracker.members(comp).size(), 5u);
  EXPECT_GT(tracker.stats().compactions, after_fail.compactions);
}

TEST(ComponentTracker, MixedDeltaBatchRebuildsOnce) {
  const net::Topology topo = net::make_ring(10);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  const auto base = tracker.stats();

  // A burst of changes between queries — including failures — costs
  // exactly one rebuild when the next query lands, however long the burst.
  live.set_link_up(0, false);
  live.set_link_up(0, true);
  live.set_site_up(2, false);
  live.set_site_up(7, false);
  live.set_site_up(2, true);
  live.set_link_up(5, false);
  EXPECT_EQ(tracker.component_count(), 2u);  // site 7 down + link 5 cut
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds + 1);
}

/// Brute-force reference: label components by repeated BFS over a fresh
/// adjacency scan.
std::vector<int> reference_labels(const LiveNetwork& live) {
  const net::Topology& topo = live.topology();
  std::vector<int> label(topo.site_count(), -1);
  int next = 0;
  for (net::SiteId root = 0; root < topo.site_count(); ++root) {
    if (!live.is_site_up(root) || label[root] != -1) continue;
    std::vector<net::SiteId> stack{root};
    label[root] = next;
    while (!stack.empty()) {
      const net::SiteId s = stack.back();
      stack.pop_back();
      for (net::LinkId l = 0; l < topo.link_count(); ++l) {
        const net::Link& e = topo.link(l);
        if (!live.link_operational(l)) continue;
        net::SiteId other;
        if (e.a == s) {
          other = e.b;
        } else if (e.b == s) {
          other = e.a;
        } else {
          continue;
        }
        if (label[other] == -1) {
          label[other] = next;
          stack.push_back(other);
        }
      }
    }
    ++next;
  }
  return label;
}

TEST(ComponentTracker, RandomizedAgreesWithReference) {
  const net::Topology topo = net::make_erdos_renyi(14, 0.25, 99);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  rng::Xoshiro256ss gen(4242);

  for (int step = 0; step < 2000; ++step) {
    // Random toggle of a random site or link.
    if (rng::bernoulli(gen, 0.5)) {
      const auto s =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      live.set_site_up(s, !live.is_site_up(s));
    } else if (topo.link_count() > 0) {
      const auto l =
          static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
      live.set_link_up(l, !live.is_link_up(l));
    }

    const std::vector<int> ref = reference_labels(live);
    // Same partition (labels may be permuted): check pairwise equivalence
    // through a bijection map, and per-site vote/size totals.
    std::map<int, std::int32_t> forward;
    std::map<std::int32_t, int> backward;
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const std::int32_t mine = tracker.component_of(s);
      ASSERT_EQ(ref[s] == -1, mine == kNoComponent) << "site " << s;
      if (ref[s] == -1) continue;
      auto [fit, finserted] = forward.try_emplace(ref[s], mine);
      EXPECT_EQ(fit->second, mine);
      auto [bit, binserted] = backward.try_emplace(mine, ref[s]);
      EXPECT_EQ(bit->second, ref[s]);

      // Vote total = component size here (uniform single votes).
      std::uint32_t ref_size = 0;
      for (net::SiteId x = 0; x < topo.site_count(); ++x) {
        ref_size += ref[x] == ref[s] ? 1u : 0u;
      }
      EXPECT_EQ(tracker.component_size(s), ref_size);
      EXPECT_EQ(tracker.component_votes(s), ref_size);
    }
  }
}

// ---------------------------------------------------------------------------
// Packed-word liveness state (SoA bitsets) and the word-parallel rebuild.

TEST(LiveNetwork, WordFlagsMirrorByteFlags) {
  const net::Topology topo = net::make_erdos_renyi(100, 0.1, 7);
  LiveNetwork live(topo);
  rng::Xoshiro256ss gen(123);

  const auto check_mirror = [&] {
    const auto site_words = live.site_up_words();
    const auto link_words = live.link_up_words();
    ASSERT_EQ(site_words.size(), bits::word_count(topo.site_count()));
    ASSERT_EQ(link_words.size(), bits::word_count(topo.link_count()));
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const bool bit =
          (site_words[s / 64] >> (s % 64) & 1) != 0;
      EXPECT_EQ(bit, live.is_site_up(s)) << "site " << s;
    }
    for (net::LinkId l = 0; l < topo.link_count(); ++l) {
      const bool bit =
          (link_words[l / 64] >> (l % 64) & 1) != 0;
      EXPECT_EQ(bit, live.is_link_up(l)) << "link " << l;
    }
    // Tail bits above the element count must stay zero: consumers
    // popcount whole words and must never see ghost elements.
    const std::uint32_t site_tail = topo.site_count() % 64;
    if (site_tail != 0) {
      EXPECT_EQ(site_words.back() >> site_tail, 0u);
    }
    const std::uint32_t link_tail = topo.link_count() % 64;
    if (link_tail != 0) {
      EXPECT_EQ(link_words.back() >> link_tail, 0u);
    }
  };

  check_mirror();
  for (int step = 0; step < 500; ++step) {
    if (rng::bernoulli(gen, 0.5)) {
      const auto s =
          static_cast<net::SiteId>(rng::uniform_index(gen, topo.site_count()));
      live.set_site_up(s, !live.is_site_up(s));
    } else {
      const auto l =
          static_cast<net::LinkId>(rng::uniform_index(gen, topo.link_count()));
      live.set_link_up(l, !live.is_link_up(l));
    }
  }
  check_mirror();
  live.reset_all_up();
  check_mirror();
}

TEST(LiveNetwork, DenseAdjacencyRowsMirrorLinkState) {
  const net::Topology topo = net::make_ring(10);
  LiveNetwork live(topo);
  ASSERT_TRUE(live.has_dense_adjacency());
  ASSERT_EQ(live.adjacency_row_words(), 1u);

  const auto row_bit = [&](net::SiteId a, net::SiteId b) {
    return (live.adjacency_row(a)[b / 64] >> (b % 64) & 1) != 0;
  };
  EXPECT_TRUE(row_bit(0, 1));
  EXPECT_TRUE(row_bit(1, 0));
  EXPECT_FALSE(row_bit(0, 2));  // no such link

  const net::LinkId l01 = topo.find_link(0, 1);
  live.set_link_up(l01, false);
  EXPECT_FALSE(row_bit(0, 1));
  EXPECT_FALSE(row_bit(1, 0));
  EXPECT_TRUE(row_bit(0, 9));  // untouched

  // Site liveness is deliberately NOT baked into the rows.
  live.set_site_up(9, false);
  EXPECT_TRUE(row_bit(0, 9));

  live.reset_all_up();
  EXPECT_TRUE(row_bit(0, 1));
  EXPECT_TRUE(row_bit(1, 0));
}

TEST(LiveNetwork, LargeTopologySkipsDenseRows) {
  // One past the dense ceiling: the quadratic rows must be disabled and
  // the tracker must fall back to the CSR path (and still be correct —
  // covered by SparseRandomizedAgreesWithReference below).
  const net::Topology big = net::make_grid(65, 64);  // 4160 > 4096
  const LiveNetwork live_big(big);
  EXPECT_FALSE(live_big.has_dense_adjacency());

  const net::Topology at = net::make_grid(64, 64);  // exactly 4096
  const LiveNetwork live_at(at);
  EXPECT_TRUE(live_at.has_dense_adjacency());
}

TEST(LiveNetwork, JournalCapacityConfigurable) {
  const net::Topology topo = net::make_ring(5);
  const LiveNetwork dflt(topo);
  EXPECT_EQ(dflt.journal_capacity(), LiveNetwork::kJournalCapacity);

  const LiveNetwork wide(topo, 1024);
  EXPECT_EQ(wide.journal_capacity(), 1024u);

  EXPECT_THROW(LiveNetwork(topo, 0), std::invalid_argument);
  EXPECT_THROW(LiveNetwork(topo, 1), std::invalid_argument);
  EXPECT_THROW(LiveNetwork(topo, 24), std::invalid_argument);
}

TEST(ComponentTracker, JournalOverflowFallsBackToRebuild) {
  // With a 4-slot journal, replaying 6 recoveries is impossible (the
  // oldest deltas were overwritten) and the tracker must detect the
  // overflow and rebuild; with an 8-slot journal the same batch is
  // absorbed incrementally. Same event sequence, different capacity.
  const net::Topology topo = net::make_ring(12);
  for (const std::uint64_t capacity : {4ull, 8ull}) {
    LiveNetwork live(topo, capacity);
    ComponentTracker tracker(live);
    for (net::SiteId s = 0; s < 6; ++s) live.set_site_up(s, false);
    ASSERT_EQ(tracker.component_count(), 1u);  // sites 6..11 still chained
    const std::uint64_t rebuilds0 = tracker.stats().full_rebuilds;

    for (net::SiteId s = 0; s < 6; ++s) live.set_site_up(s, true);
    EXPECT_EQ(tracker.component_count(), 1u);
    EXPECT_EQ(tracker.component_size(0), 12u);
    const std::uint64_t rebuilds = tracker.stats().full_rebuilds - rebuilds0;
    if (capacity == 4) {
      EXPECT_EQ(rebuilds, 1u) << "overflow must force exactly one rebuild";
    } else {
      EXPECT_EQ(rebuilds, 0u) << "a sufficient journal absorbs recoveries";
    }
  }
}

TEST(ComponentTracker, MemberWordsMatchMembers) {
  const net::Topology topo = net::make_ring(70);  // spans >1 word
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  // Split the ring into two arcs.
  live.set_link_up(topo.find_link(0, 1), false);
  live.set_link_up(topo.find_link(40, 41), false);
  ASSERT_EQ(tracker.component_count(), 2u);

  for (const net::SiteId probe : {net::SiteId{1}, net::SiteId{41}}) {
    const std::int32_t comp = tracker.component_of(probe);
    const auto words = tracker.member_words(comp);
    ASSERT_EQ(words.size(), bits::word_count(topo.site_count()));
    std::uint64_t popcount_total = 0;
    for (const bits::Word w : words)
      popcount_total += static_cast<std::uint64_t>(std::popcount(w));
    EXPECT_EQ(popcount_total, tracker.component_size(probe));
    for (const net::SiteId s : tracker.members(comp)) {
      EXPECT_NE(words[s / 64] & (bits::Word{1} << (s % 64)), 0u)
          << "member " << s << " missing from member_words";
    }
  }
}

TEST(Bitwords, KernelVariantsBitIdentical) {
  // The runtime-dispatch determinism contract: scalar and AVX2 variants
  // must agree bit for bit on every input, including non-multiple-of-4
  // word counts (the SIMD tail path).
  rng::Xoshiro256ss gen(99);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{7}, std::size_t{64},
                              std::size_t{129}}) {
    std::vector<bits::Word> a(n), b(n), dst_scalar(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = gen();
      b[i] = gen();
      dst_scalar[i] = gen();
    }
    std::vector<bits::Word> dst_dispatch = dst_scalar;
    bits::detail::or_and_scalar(dst_scalar.data(), a.data(), b.data(), n);
    bits::or_and(dst_dispatch.data(), a.data(), b.data(), n);
    EXPECT_EQ(dst_scalar, dst_dispatch) << "n=" << n;
    EXPECT_EQ(bits::detail::popcount_and_scalar(a.data(), b.data(), n),
              bits::popcount_and(a.data(), b.data(), n))
        << "n=" << n;
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) {
      // Direct variant-vs-variant check, independent of the dispatcher
      // (which may have been forced scalar via QUORA_SIMD).
      std::vector<bits::Word> dst_avx2 = dst_scalar;
      for (std::size_t i = 0; i < n; ++i) dst_avx2[i] = a[i] ^ b[i];
      std::vector<bits::Word> dst_ref = dst_avx2;
      bits::detail::or_and_scalar(dst_ref.data(), a.data(), b.data(), n);
      bits::detail::or_and_avx2(dst_avx2.data(), a.data(), b.data(), n);
      EXPECT_EQ(dst_ref, dst_avx2) << "n=" << n;
      EXPECT_EQ(bits::detail::popcount_and_scalar(a.data(), b.data(), n),
                bits::detail::popcount_and_avx2(a.data(), b.data(), n))
          << "n=" << n;
    }
#endif
  }
}

/// CSR-based reference labeling (cheap enough for >4096-site graphs,
/// where reference_labels' all-links scan is quadratic).
std::vector<int> csr_reference_labels(const LiveNetwork& live) {
  const net::Topology& topo = live.topology();
  std::vector<int> label(topo.site_count(), -1);
  int next = 0;
  for (net::SiteId root = 0; root < topo.site_count(); ++root) {
    if (!live.is_site_up(root) || label[root] != -1) continue;
    std::vector<net::SiteId> stack{root};
    label[root] = next;
    while (!stack.empty()) {
      const net::SiteId s = stack.back();
      stack.pop_back();
      for (const net::Topology::Edge& e : topo.neighbors(s)) {
        if (!live.is_link_up(e.link) || !live.is_site_up(e.neighbor)) continue;
        if (label[e.neighbor] != -1) continue;
        label[e.neighbor] = next;
        stack.push_back(e.neighbor);
      }
    }
    ++next;
  }
  return label;
}

TEST(ComponentTracker, SparseRandomizedAgreesWithReference) {
  // Above the dense ceiling, so this drives rebuild_sparse — the path the
  // 50k/250k/1M scale points rely on.
  const net::Topology topo = net::make_grid(80, 60);  // 4800 sites
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  ASSERT_FALSE(live.has_dense_adjacency());
  rng::Xoshiro256ss gen(31337);

  for (int step = 0; step < 60; ++step) {
    for (int burst = 0; burst < 5; ++burst) {
      if (rng::bernoulli(gen, 0.3)) {
        const auto s = static_cast<net::SiteId>(
            rng::uniform_index(gen, topo.site_count()));
        live.set_site_up(s, !live.is_site_up(s));
      } else {
        const auto l = static_cast<net::LinkId>(
            rng::uniform_index(gen, topo.link_count()));
        live.set_link_up(l, !live.is_link_up(l));
      }
    }
    const std::vector<int> ref = csr_reference_labels(live);
    std::map<int, std::int32_t> forward;
    std::map<std::int32_t, int> backward;
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const std::int32_t mine = tracker.component_of(s);
      ASSERT_EQ(ref[s] == -1, mine == kNoComponent) << "site " << s;
      if (ref[s] == -1) continue;
      auto [fit, finserted] = forward.try_emplace(ref[s], mine);
      ASSERT_EQ(fit->second, mine) << "site " << s;
      auto [bit, binserted] = backward.try_emplace(mine, ref[s]);
      ASSERT_EQ(bit->second, ref[s]) << "site " << s;
    }
  }
}

TEST(ComponentTracker, DenseRandomizedAgreesWithReference) {
  // 80 sites (rows span two words) with m >> n^2/64, so this drives the
  // word-parallel rebuild_dense path under churn.
  const net::Topology topo = net::make_erdos_renyi(80, 0.3, 11);
  ASSERT_GE(64ull * topo.link_count(),
            static_cast<std::uint64_t>(topo.site_count()) * topo.site_count());
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  rng::Xoshiro256ss gen(555);

  for (int step = 0; step < 300; ++step) {
    for (int burst = 0; burst < 3; ++burst) {
      if (rng::bernoulli(gen, 0.4)) {
        const auto s = static_cast<net::SiteId>(
            rng::uniform_index(gen, topo.site_count()));
        live.set_site_up(s, !live.is_site_up(s));
      } else {
        const auto l = static_cast<net::LinkId>(
            rng::uniform_index(gen, topo.link_count()));
        live.set_link_up(l, !live.is_link_up(l));
      }
    }
    const std::vector<int> ref = csr_reference_labels(live);
    std::map<int, std::int32_t> forward;
    std::map<std::int32_t, int> backward;
    for (net::SiteId s = 0; s < topo.site_count(); ++s) {
      const std::int32_t mine = tracker.component_of(s);
      ASSERT_EQ(ref[s] == -1, mine == kNoComponent) << "site " << s;
      if (ref[s] == -1) continue;
      auto [fit, finserted] = forward.try_emplace(ref[s], mine);
      ASSERT_EQ(fit->second, mine) << "site " << s;
      auto [bit, binserted] = backward.try_emplace(mine, ref[s]);
      ASSERT_EQ(bit->second, ref[s]) << "site " << s;
    }
  }
}

TEST(ComponentTracker, MembersAscendAfterRebuildAndMerge) {
  // Canonical member order: ascending site id from both the rebuild
  // paths and the incremental-merge compaction.
  const net::Topology topo = net::make_fully_connected(9);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);

  live.set_site_up(4, false);  // failure -> full rebuild
  auto check_ascending = [&] {
    for (std::uint32_t c = 0; c < tracker.component_count(); ++c) {
      const auto m = tracker.members(static_cast<std::int32_t>(c));
      for (std::size_t i = 1; i < m.size(); ++i) {
        EXPECT_LT(m[i - 1], m[i]);
      }
    }
  };
  check_ascending();
  live.set_site_up(4, true);  // recovery -> incremental merge + compaction
  check_ascending();
}

// ---------------------------------------------------------------------------
// Decremental windows: failures absorbed in place on the dense path.

/// The same graph with votes 1..3 by site id, so vote totals (and the
/// max component) differ from sizes.
net::Topology reweighted(const net::Topology& base) {
  std::vector<net::Vote> votes(base.site_count());
  for (net::SiteId s = 0; s < base.site_count(); ++s) votes[s] = 1 + s % 3;
  return net::Topology(base.name() + "-weighted", base.site_count(),
                       {base.links().begin(), base.links().end()},
                       std::move(votes));
}

/// Two cliques of `a` and `b` sites joined by the single bridge
/// {a-1, a}: dense enough for the word-parallel path, and one link-down
/// away from a split.
net::Topology barbell(std::uint32_t a, std::uint32_t b) {
  std::vector<net::Link> links;
  for (net::SiteId i = 0; i < a; ++i)
    for (net::SiteId j = i + 1; j < a; ++j) links.push_back({i, j});
  for (net::SiteId i = a; i < a + b; ++i)
    for (net::SiteId j = i + 1; j < a + b; ++j) links.push_back({i, j});
  links.push_back({a - 1, a});
  return net::Topology("barbell", a + b, std::move(links));
}

/// Every scalar query of `tracker` against a tracker freshly built on the
/// same network; with `structural`, also labels and member lists (both
/// must come out in the canonical numbering and order).
void expect_matches_fresh(const ComponentTracker& tracker,
                          const LiveNetwork& live, bool structural) {
  const ComponentTracker fresh(live);
  const std::uint32_t n = live.topology().site_count();
  ASSERT_EQ(tracker.component_count(), fresh.component_count());
  ASSERT_EQ(tracker.max_component_votes(), fresh.max_component_votes());
  for (net::SiteId s = 0; s < n; ++s) {
    ASSERT_EQ(tracker.component_votes(s), fresh.component_votes(s)) << s;
    ASSERT_EQ(tracker.component_size(s), fresh.component_size(s)) << s;
    for (const net::SiteId t : {(s + 1) % n, (s * 7 + 3) % n})
      ASSERT_EQ(tracker.connected(s, t), fresh.connected(s, t))
          << s << "-" << t;
  }
  if (!structural) return;
  for (net::SiteId s = 0; s < n; ++s)
    ASSERT_EQ(tracker.component_of(s), fresh.component_of(s)) << s;
  for (std::uint32_t c = 0; c < fresh.component_count(); ++c) {
    const auto mine = tracker.members(static_cast<std::int32_t>(c));
    const auto want = fresh.members(static_cast<std::int32_t>(c));
    ASSERT_TRUE(std::equal(mine.begin(), mine.end(), want.begin(), want.end()))
        << "members of component " << c;
  }
}

TEST(ComponentTracker, DecrementalWindowsMatchAFreshTracker) {
  struct Case {
    net::Topology topo;
    bool dense_path;
  };
  const Case cases[] = {
      {reweighted(net::make_fully_connected(12)), true},
      {net::make_ring_with_chords(20, 40), true},
      {reweighted(net::make_ring_with_chords(101, 256)), true},
      {net::make_fully_connected(101), true},
      {net::make_ring_with_chords(101, 4), false},  // m < n^2/64: CSR path
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.topo.name());
    const net::Topology& topo = c.topo;
    // A 16-slot journal holds every burst, and keeps the reserved label
    // headroom small enough that the in-place renumbering runs too.
    LiveNetwork live(topo, 16);
    const ComponentTracker tracker(live);
    rng::Xoshiro256ss gen(0xdecade ^ topo.site_count());
    std::uint64_t failure_windows = 0;
    for (int burst = 0; burst < 600; ++burst) {
      // 1-8 flips per window, so one replay mixes failures, recoveries and
      // flips of the same element.
      const std::uint64_t flips = 1 + rng::uniform_index(gen, 8);
      bool failed = false;
      for (std::uint64_t f = 0; f < flips; ++f) {
        if (rng::bernoulli(gen, 0.4)) {
          const auto s = static_cast<net::SiteId>(
              rng::uniform_index(gen, topo.site_count()));
          failed |= live.is_site_up(s);
          live.set_site_up(s, !live.is_site_up(s));
        } else {
          const auto l = static_cast<net::LinkId>(
              rng::uniform_index(gen, topo.link_count()));
          failed |= live.is_link_up(l);
          live.set_link_up(l, !live.is_link_up(l));
        }
      }
      failure_windows += failed ? 1 : 0;
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_fresh(tracker, live, /*structural=*/burst % 8 == 7))
          << "burst " << burst;
    }
    // The fast path must actually carry the dense cases; the CSR path
    // rebuilds on every window with a failure in it.
    if (c.dense_path) {
      EXPECT_LT(tracker.stats().full_rebuilds, failure_windows / 2);
    } else {
      EXPECT_GE(tracker.stats().full_rebuilds, failure_windows);
    }
  }
}

TEST(ComponentTracker, NonSplittingFailuresOnACliqueAbsorbWithoutRebuild) {
  const net::Topology topo = net::make_fully_connected(20);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  const auto base = tracker.stats();

  live.set_site_up(5, false);
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.component_votes(0), 19u);
  EXPECT_EQ(tracker.component_size(19), 19u);
  EXPECT_EQ(tracker.component_votes(5), 0u);
  EXPECT_EQ(tracker.max_component_votes(), 19u);

  live.set_link_up(topo.find_link(0, 1), false);
  EXPECT_TRUE(tracker.connected(0, 1));
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds);
  EXPECT_EQ(tracker.stats().incremental_applies, base.incremental_applies + 2);
}

TEST(ComponentTracker, BridgeLinkDownCostsExactlyOneRebuild) {
  const net::Topology topo = barbell(8, 6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  const auto base = tracker.stats();

  live.set_link_up(topo.find_link(0, 1), false);  // inside a clique
  EXPECT_EQ(tracker.component_count(), 1u);
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds);

  live.set_link_up(topo.find_link(7, 8), false);  // the bridge
  EXPECT_EQ(tracker.component_count(), 2u);
  EXPECT_FALSE(tracker.connected(0, 13));
  EXPECT_EQ(tracker.component_votes(0), 8u);
  EXPECT_EQ(tracker.component_votes(13), 6u);
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds + 1);
}

TEST(ComponentTracker, RemovalFromTheMaxComponentLowersMaxVotes) {
  const net::Topology topo = barbell(8, 6);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  live.set_link_up(topo.find_link(7, 8), false);
  ASSERT_EQ(tracker.max_component_votes(), 8u);
  const auto split = tracker.stats();

  live.set_site_up(2, false);  // the 8-clique keeps its lead at 7
  EXPECT_EQ(tracker.max_component_votes(), 7u);
  live.set_site_up(3, false);
  live.set_site_up(4, false);  // 5 < 6: the other clique takes over
  EXPECT_EQ(tracker.max_component_votes(), 6u);
  EXPECT_EQ(tracker.component_count(), 2u);
  EXPECT_EQ(tracker.stats().full_rebuilds, split.full_rebuilds);
}

TEST(ComponentTracker, SiteCyclesNeverGrowTheLabelArrays) {
  // Every recovery appends a union-find label; the window replay must
  // renumber in place before the reserved capacity runs out. The vote
  // buffer is reserved alongside the labels, so its address only holds
  // if neither array ever reallocates.
  const net::Topology topo = net::make_fully_connected(30);
  LiveNetwork live(topo);
  const ComponentTracker tracker(live);
  const net::Vote* votes_buffer = tracker.votes_by_label().data();
  const auto base = tracker.stats();

  for (int cycle = 0; cycle < 600; ++cycle) {
    const auto s = static_cast<net::SiteId>(cycle % 30);
    live.set_site_up(s, false);
    ASSERT_EQ(tracker.component_votes((s + 1) % 30), 29u);
    live.set_site_up(s, true);
    ASSERT_EQ(tracker.max_component_votes(), 30u);
  }
  EXPECT_EQ(tracker.stats().full_rebuilds, base.full_rebuilds);
  EXPECT_GT(tracker.stats().compactions, base.compactions);
  EXPECT_EQ(tracker.votes_by_label().data(), votes_buffer);
  EXPECT_EQ(tracker.votes_by_label().size(), 1u);
}

} // namespace
} // namespace quora::conn
