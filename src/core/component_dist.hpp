#pragma once

#include <cstdint>
#include <vector>

#include "net/types.hpp"

namespace quora::core {

/// A probability density over vote counts: pdf[v] is the probability that
/// the component containing a given site holds exactly v votes, for
/// v = 0..T. pdf[0] is the mass of the site itself being down (the paper
/// regards a down site as belonging to a component of size zero).
using VotePdf = std::vector<double>;

/// Validates that `pdf` is a density: entries non-negative, sum within
/// `tol` of 1. Returns the sum.
double pdf_total(const VotePdf& pdf);
bool is_valid_pdf(const VotePdf& pdf, double tol = 1e-9);

/// Mean of the density.
double pdf_mean(const VotePdf& pdf);

/// Mixture sum_i weights[i] * pdfs[i] — the paper's step 2:
/// r(v) = sum_i r_i f_i(v). Weights must sum to 1 (within 1e-9) and all
/// pdfs share a domain.
VotePdf mix_pdfs(const std::vector<VotePdf>& pdfs, const std::vector<double>& weights);

/// --- Closed forms of §4.2 (one copy and one vote per site, so T = n) ---
///
/// Each closed form validates its result in every build type and throws
/// std::domain_error when it is not a density within 1e-6 (the
/// fully-connected form fails this way at very low link reliability, where
/// Gilbert's recursion cancels catastrophically).

/// Gilbert's recursive all-terminal reliability of a complete graph on m
/// sites whose links are up independently with probability r (sites do not
/// fail): Rel(m,r) = 1 - sum_{i=1}^{m-1} C(m-1, i-1) (1-r)^{i(m-i)} Rel(i,r).
/// Computed in long double; exact enough for m in the hundreds.
double gilbert_rel(std::uint32_t m, double r);

/// All of Rel(1..m, r) in one O(m^2) pass — the fully-connected density
/// needs every prefix, and recomputing per size would cost O(m^3).
std::vector<double> gilbert_rel_table(std::uint32_t m, double r);

/// Ring of n sites: density of the votes in the component of any fixed
/// site, with site reliability p and link reliability r.
VotePdf ring_site_pdf(std::uint32_t n, double p, double r);

/// Fully-connected network of n sites:
/// f(v) = C(n-1, v-1) p^v ((1-p) + p(1-r)^v)^(n-v) Rel(v, r).
VotePdf fully_connected_site_pdf(std::uint32_t n, double p, double r);

/// Single-bus network architectures of §4.2.
enum class BusArchitecture : std::uint8_t {
  /// No site functions while the bus is down: bus failure sends every
  /// site to a zero-vote component.
  kSitesDieWithBus,
  /// Sites survive bus failure as singleton components.
  kSitesSurviveBus,
};

/// Single-bus network of n sites, bus reliability r, site reliability p.
///
/// Note: for the kSitesSurviveBus case the paper prints f(1) = p, which
/// cannot be a density (it already sums to 1 with f(0) = 1-p before any
/// v >= 2 term). We implement the exact expression
/// f(1) = p[(1-r) + r(1-p)^(n-1)] — an operational site is alone iff the
/// bus is down or every other site is down — which does sum to 1; the
/// discrepancy is recorded in EXPERIMENTS.md.
VotePdf bus_site_pdf(std::uint32_t n, double p, double r, BusArchitecture arch);

} // namespace quora::core
