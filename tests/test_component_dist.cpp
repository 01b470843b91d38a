// Tests for the closed-form component-size densities of §4.2 — each one is
// cross-checked against exact brute-force enumeration over all site/link
// up-down states of a small network, so the formulas (including Gilbert's
// recursion) are verified against first principles, not just themselves.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/component_dist.hpp"
#include "net/builders.hpp"
#include "net/topology.hpp"

namespace quora::core {
namespace {

/// Exact distribution of the vote count of site 0's component, by summing
/// over every up/down state of all sites and links. Exponential in
/// n + links — for test-sized networks only.
VotePdf enumerate_site0_pdf(const net::Topology& topo, double p, double r) {
  const std::uint32_t n = topo.site_count();
  const std::uint32_t m = topo.link_count();
  VotePdf pdf(topo.total_votes() + 1, 0.0);

  for (std::uint32_t sites = 0; sites < (1u << n); ++sites) {
    double p_sites = 1.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      p_sites *= (sites >> i & 1) ? p : (1.0 - p);
    }
    for (std::uint32_t links = 0; links < (1u << m); ++links) {
      double prob = p_sites;
      for (std::uint32_t l = 0; l < m; ++l) {
        prob *= (links >> l & 1) ? r : (1.0 - r);
      }
      // BFS from site 0 over up sites/links.
      net::Vote votes = 0;
      if (sites & 1) {
        std::vector<std::uint8_t> seen(n, 0);
        std::vector<std::uint32_t> stack{0};
        seen[0] = 1;
        while (!stack.empty()) {
          const std::uint32_t s = stack.back();
          stack.pop_back();
          votes += topo.votes(s);
          for (const auto& e : topo.neighbors(s)) {
            if (!(links >> e.link & 1)) continue;
            if (!(sites >> e.neighbor & 1)) continue;
            if (seen[e.neighbor]) continue;
            seen[e.neighbor] = 1;
            stack.push_back(e.neighbor);
          }
        }
      }
      pdf[votes] += prob;
    }
  }
  return pdf;
}

void expect_pdfs_equal(const VotePdf& a, const VotePdf& b, double tol,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_NEAR(a[v], b[v], tol) << what << " at v=" << v;
  }
}

TEST(PdfHelpers, TotalValidMeanMix) {
  const VotePdf good{0.25, 0.25, 0.5};
  EXPECT_NEAR(pdf_total(good), 1.0, 1e-15);
  EXPECT_TRUE(is_valid_pdf(good));
  EXPECT_DOUBLE_EQ(pdf_mean(good), 1.25);

  EXPECT_FALSE(is_valid_pdf(VotePdf{0.5, 0.4}));       // sums to 0.9
  EXPECT_FALSE(is_valid_pdf(VotePdf{1.5, -0.5}));      // negative entry
  EXPECT_FALSE(is_valid_pdf(VotePdf{}));               // empty

  const VotePdf other{1.0, 0.0, 0.0};
  const VotePdf mixed = mix_pdfs({good, other}, {0.5, 0.5});
  EXPECT_NEAR(mixed[0], 0.625, 1e-15);
  EXPECT_NEAR(mixed[2], 0.25, 1e-15);
  EXPECT_TRUE(is_valid_pdf(mixed));

  EXPECT_THROW(mix_pdfs({}, {}), std::invalid_argument);
  EXPECT_THROW(mix_pdfs({good}, {0.9}), std::invalid_argument);
  EXPECT_THROW(mix_pdfs({good, VotePdf{1.0}}, {0.5, 0.5}), std::invalid_argument);
}

TEST(GilbertRel, SmallClosedForms) {
  // Rel(2,r) = r. Rel(3,r) = r^3 + 3 r^2 (1-r) (any 2 of 3 links, or all).
  for (const double r : {0.1, 0.5, 0.9, 0.96}) {
    EXPECT_NEAR(gilbert_rel(2, r), r, 1e-12);
    EXPECT_NEAR(gilbert_rel(3, r), r * r * r + 3 * r * r * (1 - r), 1e-12);
  }
}

TEST(GilbertRel, MatchesBruteForceEnumeration) {
  // All-terminal reliability of K_m by enumerating every link subset.
  for (const std::uint32_t m : {4u, 5u}) {
    const net::Topology complete = net::make_fully_connected(m);
    for (const double r : {0.3, 0.7, 0.96}) {
      // Sites perfect (p = 1): P(component of 0 has all m votes) = Rel.
      const VotePdf exact = enumerate_site0_pdf(complete, 1.0, r);
      EXPECT_NEAR(gilbert_rel(m, r), exact[m], 1e-10) << "m=" << m << " r=" << r;
    }
  }
}

TEST(GilbertRel, EdgeCasesAndMonotonicity) {
  EXPECT_DOUBLE_EQ(gilbert_rel(1, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(gilbert_rel(7, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(gilbert_rel(7, 0.0), 0.0);
  EXPECT_THROW(gilbert_rel(0, 0.5), std::invalid_argument);
  EXPECT_THROW(gilbert_rel(5, 1.5), std::invalid_argument);
  double prev = 0.0;
  for (const double r : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double rel = gilbert_rel(6, r);
    EXPECT_GT(rel, prev);
    prev = rel;
  }
}

TEST(GilbertRel, LargeArgumentStaysInRange) {
  for (const std::uint32_t m : {50u, 101u, 200u}) {
    const double rel = gilbert_rel(m, 0.96);
    EXPECT_GE(rel, 0.0);
    EXPECT_LE(rel, 1.0);
    EXPECT_GT(rel, 0.999);  // dense graphs with reliable links ~ connected
  }
}

TEST(RingPdf, IsAProbabilityDensity) {
  for (const std::uint32_t n : {3u, 10u, 101u}) {
    for (const double p : {0.5, 0.9, 0.96}) {
      for (const double r : {0.5, 0.9, 0.96}) {
        const VotePdf pdf = ring_site_pdf(n, p, r);
        EXPECT_TRUE(is_valid_pdf(pdf, 1e-9))
            << "n=" << n << " p=" << p << " r=" << r
            << " total=" << pdf_total(pdf);
      }
    }
  }
}

TEST(RingPdf, MatchesBruteForceEnumeration) {
  for (const std::uint32_t n : {4u, 5u, 6u}) {
    const net::Topology ring = net::make_ring(n);
    for (const double p : {0.7, 0.96}) {
      for (const double r : {0.8, 0.96}) {
        const VotePdf exact = enumerate_site0_pdf(ring, p, r);
        const VotePdf formula = ring_site_pdf(n, p, r);
        expect_pdfs_equal(formula, exact, 1e-10,
                          "ring n=" + std::to_string(n));
      }
    }
  }
}

TEST(RingPdf, DegenerateParameters) {
  // Perfect everything: the whole ring, always.
  const VotePdf perfect = ring_site_pdf(5, 1.0, 1.0);
  EXPECT_NEAR(perfect[5], 1.0, 1e-12);
  // Dead links: alone iff up.
  const VotePdf isolated = ring_site_pdf(5, 0.9, 0.0);
  EXPECT_NEAR(isolated[1], 0.9, 1e-12);
  EXPECT_NEAR(isolated[0], 0.1, 1e-12);
  EXPECT_THROW(ring_site_pdf(2, 0.9, 0.9), std::invalid_argument);
}

TEST(FullyConnectedPdf, IsAProbabilityDensity) {
  for (const std::uint32_t n : {2u, 5u, 25u, 101u}) {
    const VotePdf pdf = fully_connected_site_pdf(n, 0.96, 0.96);
    EXPECT_TRUE(is_valid_pdf(pdf, 1e-9)) << "n=" << n << " total=" << pdf_total(pdf);
  }
}

TEST(FullyConnectedPdf, MatchesBruteForceEnumeration) {
  for (const std::uint32_t n : {3u, 4u, 5u}) {
    const net::Topology complete = net::make_fully_connected(n);
    for (const double p : {0.7, 0.96}) {
      for (const double r : {0.6, 0.96}) {
        const VotePdf exact = enumerate_site0_pdf(complete, p, r);
        const VotePdf formula = fully_connected_site_pdf(n, p, r);
        expect_pdfs_equal(formula, exact, 1e-10,
                          "complete n=" + std::to_string(n));
      }
    }
  }
}

TEST(FullyConnectedPdf, MassConcentratesAtFullSize) {
  // Reliable dense network: either you're down or you see almost everyone.
  const VotePdf pdf = fully_connected_site_pdf(101, 0.96, 0.96);
  EXPECT_NEAR(pdf[0], 0.04, 1e-9);
  double top = 0.0;
  for (std::uint32_t v = 90; v <= 101; ++v) top += pdf[v];
  EXPECT_GT(top, 0.95);
}

TEST(BusPdf, BothArchitecturesAreDensities) {
  for (const std::uint32_t n : {2u, 10u, 50u}) {
    for (const auto arch :
         {BusArchitecture::kSitesDieWithBus, BusArchitecture::kSitesSurviveBus}) {
      const VotePdf pdf = bus_site_pdf(n, 0.9, 0.8, arch);
      EXPECT_TRUE(is_valid_pdf(pdf, 1e-9))
          << "n=" << n << " total=" << pdf_total(pdf);
    }
  }
}

TEST(BusPdf, MatchesDirectEnumeration) {
  // Enumerate the bus model from its definition: the bus is up w.p. r;
  // sites are up independently w.p. p.
  constexpr std::uint32_t n = 6;
  constexpr double p = 0.85;
  constexpr double r = 0.75;

  VotePdf die(n + 1, 0.0);
  VotePdf survive(n + 1, 0.0);
  for (int bus = 0; bus < 2; ++bus) {
    const double p_bus = bus ? r : 1.0 - r;
    for (std::uint32_t sites = 0; sites < (1u << n); ++sites) {
      double prob = p_bus;
      std::uint32_t up = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        const bool s_up = (sites >> i & 1) != 0;
        prob *= s_up ? p : 1.0 - p;
        up += s_up;
      }
      const bool site0_up = (sites & 1) != 0;
      // kSitesDieWithBus: bus down => everyone effectively down.
      die[(bus && site0_up) ? up : 0] += prob;
      // kSitesSurviveBus: bus down => singleton if up.
      survive[site0_up ? (bus ? up : 1) : 0] += prob;
    }
  }

  expect_pdfs_equal(bus_site_pdf(n, p, r, BusArchitecture::kSitesDieWithBus), die,
                    1e-12, "bus die");
  expect_pdfs_equal(bus_site_pdf(n, p, r, BusArchitecture::kSitesSurviveBus),
                    survive, 1e-12, "bus survive");
}

TEST(BusPdf, PaperTypoIsCorrected) {
  // The paper prints f(1) = p for the survive architecture, which cannot
  // be a density (f(0) = 1-p already, so everything else would get zero).
  // Our exact f(1) = p[(1-r) + r(1-p)^(n-1)] is strictly less than p.
  const VotePdf pdf = bus_site_pdf(10, 0.9, 0.8, BusArchitecture::kSitesSurviveBus);
  EXPECT_LT(pdf[1], 0.9);
  EXPECT_NEAR(pdf[1], 0.9 * (0.2 + 0.8 * std::pow(0.1, 9)), 1e-12);
  EXPECT_NEAR(pdf[0], 0.1, 1e-12);
}

TEST(AllClosedForms, ParameterGuards) {
  EXPECT_THROW(ring_site_pdf(5, -0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(ring_site_pdf(5, 0.5, 1.1), std::invalid_argument);
  EXPECT_THROW(fully_connected_site_pdf(1, 0.5, 0.5), std::invalid_argument);
  EXPECT_THROW(bus_site_pdf(1, 0.5, 0.5, BusArchitecture::kSitesDieWithBus),
               std::invalid_argument);
}

TEST(FullyConnectedPdf, ThrowsWhenGilbertRecursionCancels) {
  // At r = .01 the 1 - sum recursion for Rel cancels catastrophically and
  // the binomial weights amplify the residue (mass ~4e12 at n = 101); the
  // closed form must refuse that in every build type.
  EXPECT_THROW(fully_connected_site_pdf(101, 0.96, 0.01), std::domain_error);
  EXPECT_THROW(fully_connected_site_pdf(45, 0.96, 0.01), std::domain_error);
}

TEST(AllClosedForms, ReturnDensityOrThrowOverTheGrid) {
  // Each closed form either returns a density (within the 1e-6 it checks)
  // or throws std::domain_error — never a silent non-density.
  const auto valid_or_throws = [](auto&& closed_form) {
    try {
      return is_valid_pdf(closed_form(), 1e-6);
    } catch (const std::domain_error&) {
      return true;
    }
  };
  int ring_throws = 0;
  for (const std::uint32_t n : {3u, 5u, 10u, 21u, 45u, 101u}) {
    for (const double p : {0.5, 0.8, 0.9, 0.96, 0.99}) {
      for (const double r : {0.01, 0.05, 0.1, 0.3, 0.5, 0.8, 0.96, 1.0}) {
        const std::string at = "n=" + std::to_string(n) +
                               " p=" + std::to_string(p) +
                               " r=" + std::to_string(r);
        EXPECT_TRUE(valid_or_throws([&] { return ring_site_pdf(n, p, r); })) << at;
        EXPECT_TRUE(valid_or_throws(
            [&] { return fully_connected_site_pdf(n, p, r); })) << at;
        for (const BusArchitecture arch : {BusArchitecture::kSitesDieWithBus,
                                           BusArchitecture::kSitesSurviveBus}) {
          EXPECT_TRUE(valid_or_throws([&] { return bus_site_pdf(n, p, r, arch); }))
              << at;
        }
        try {
          (void)ring_site_pdf(n, p, r);
        } catch (const std::domain_error&) {
          ++ring_throws;
        }
      }
    }
  }
  // The ring form has no cancellation: it is valid on the whole grid.
  EXPECT_EQ(ring_throws, 0);
}

} // namespace
} // namespace quora::core
