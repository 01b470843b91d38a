#include "core/component_dist.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"

namespace quora::core {
namespace {

long double log_binomial(std::uint32_t n, std::uint32_t k) {
  if (k > n) return -std::numeric_limits<long double>::infinity();
  return std::lgamma(static_cast<long double>(n) + 1.0L) -
         std::lgamma(static_cast<long double>(k) + 1.0L) -
         std::lgamma(static_cast<long double>(n - k) + 1.0L);
}

void check_probability(double x, const char* what) {
  if (!(x >= 0.0 && x <= 1.0)) {
    throw std::invalid_argument(std::string(what) + " must be in [0,1]");
  }
}

// The closed forms are cold paths, so they validate their output in every
// build type: a formula that cancels catastrophically (Gilbert's Rel
// recursion at low link reliability) must fail loudly instead of handing
// the optimizer a "density" of mass 1e12.
VotePdf require_density(VotePdf pdf, const char* what) {
  if (!is_valid_pdf(pdf, 1e-6)) {
    throw std::domain_error(std::string(what) +
                            ": result is not a probability density (total " +
                            std::to_string(pdf_total(pdf)) + ")");
  }
  return pdf;
}

} // namespace

double pdf_total(const VotePdf& pdf) {
  long double total = 0.0L;
  for (const double x : pdf) total += x;
  return static_cast<double>(total);
}

bool is_valid_pdf(const VotePdf& pdf, double tol) {
  if (pdf.empty()) return false;
  for (const double x : pdf) {
    if (!(x >= -tol)) return false;
  }
  return std::abs(pdf_total(pdf) - 1.0) <= tol;
}

double pdf_mean(const VotePdf& pdf) {
  long double acc = 0.0L;
  for (std::size_t v = 0; v < pdf.size(); ++v) {
    acc += static_cast<long double>(v) * pdf[v];
  }
  return static_cast<double>(acc);
}

VotePdf mix_pdfs(const std::vector<VotePdf>& pdfs, const std::vector<double>& weights) {
  if (pdfs.empty()) throw std::invalid_argument("mix_pdfs: no densities");
  if (pdfs.size() != weights.size()) {
    throw std::invalid_argument("mix_pdfs: weights size mismatch");
  }
  const std::size_t domain = pdfs.front().size();
  long double weight_total = 0.0L;
  for (const double w : weights) {
    if (!(w >= 0.0)) throw std::invalid_argument("mix_pdfs: negative weight");
    weight_total += w;
  }
  if (std::abs(static_cast<double>(weight_total) - 1.0) > 1e-9) {
    throw std::invalid_argument("mix_pdfs: weights must sum to 1");
  }
  VotePdf out(domain, 0.0);
  for (std::size_t i = 0; i < pdfs.size(); ++i) {
    if (pdfs[i].size() != domain) {
      throw std::invalid_argument("mix_pdfs: domain mismatch");
    }
    for (std::size_t v = 0; v < domain; ++v) out[v] += weights[i] * pdfs[i][v];
  }
  // Step 2 of Figure 1: r(v) = sum_i r_i f_i(v) stays a density exactly
  // when every f_i is one. Callers feed estimator output here, so a
  // drifted histogram normalization surfaces immediately.
  if constexpr (contracts::kActive) {
    bool all_unit = true;
    for (const VotePdf& pdf : pdfs) all_unit = all_unit && is_valid_pdf(pdf, 1e-6);
    QUORA_INVARIANT(!all_unit || is_valid_pdf(out, 1e-6),
                    "mixture of unit-mass densities lost probability mass");
  }
  return out;
}

std::vector<double> gilbert_rel_table(std::uint32_t m, double r) {
  check_probability(r, "gilbert_rel: r");
  if (m == 0) throw std::invalid_argument("gilbert_rel: m must be positive");
  std::vector<double> out(m + 1, 0.0);
  out[0] = 1.0;  // vacuous
  out[1] = 1.0;
  if (r == 1.0) {
    for (std::uint32_t k = 2; k <= m; ++k) out[k] = 1.0;
    return out;
  }
  if (r == 0.0) return out;  // Rel(k>1, 0) = 0

  const long double log_q = std::log(static_cast<long double>(1.0 - r));
  std::vector<long double> rel(m + 1, 0.0L);
  rel[1] = 1.0L;
  for (std::uint32_t k = 2; k <= m; ++k) {
    long double sum = 0.0L;
    for (std::uint32_t i = 1; i < k; ++i) {
      // C(k-1, i-1) (1-r)^{i(k-i)} Rel(i, r)
      const long double log_term =
          log_binomial(k - 1, i - 1) +
          static_cast<long double>(i) * static_cast<long double>(k - i) * log_q;
      sum += std::exp(log_term) * rel[i];
    }
    long double value = 1.0L - sum;
    if (value < 0.0L) value = 0.0L;  // float residue near r -> 0
    if (value > 1.0L) value = 1.0L;
    rel[k] = value;
    out[k] = static_cast<double>(value);
  }
  return out;
}

double gilbert_rel(std::uint32_t m, double r) {
  return gilbert_rel_table(m, r)[m];
}

VotePdf ring_site_pdf(std::uint32_t n, double p, double r) {
  check_probability(p, "ring_site_pdf: p");
  check_probability(r, "ring_site_pdf: r");
  if (n < 3) throw std::invalid_argument("ring_site_pdf: need at least 3 sites");

  VotePdf pdf(n + 1, 0.0);
  pdf[0] = 1.0 - p;

  const long double lp = static_cast<long double>(p);
  const long double lr = static_cast<long double>(r);
  for (std::uint32_t v = 1; v <= n; ++v) {
    const long double lv = static_cast<long double>(v);
    const long double base = lv * std::pow(lp, lv) * std::pow(lr, lv - 1);
    long double value;
    if (v == n) {
      // Entire ring: all sites up and at most one of the n links down.
      value = base * (1.0L - lr) + std::pow(lp, lv) * std::pow(lr, lv);
    } else if (v == n - 1) {
      // Chain of n-1 sites: the excluded site is down, or up with both of
      // its incident links down.
      value = base * ((1.0L - lp) + lp * (1.0L - lr) * (1.0L - lr));
    } else {
      // Interior chain: blocked on both sides (next site down or link
      // down, independently per side).
      const long double block = 1.0L - lp * lr;
      value = base * block * block;
    }
    pdf[v] = static_cast<double>(value);
  }
  return require_density(std::move(pdf), "ring_site_pdf");
}

VotePdf fully_connected_site_pdf(std::uint32_t n, double p, double r) {
  check_probability(p, "fully_connected_site_pdf: p");
  check_probability(r, "fully_connected_site_pdf: r");
  if (n < 2) throw std::invalid_argument("fully_connected_site_pdf: need >= 2 sites");

  VotePdf pdf(n + 1, 0.0);
  pdf[0] = 1.0 - p;

  const long double lp = static_cast<long double>(p);
  const long double lr = static_cast<long double>(r);
  const std::vector<double> rel = gilbert_rel_table(n, r);
  for (std::uint32_t v = 1; v <= n; ++v) {
    // An up outside site is excluded iff all of its v links into the
    // component are down.
    const long double exclude =
        (1.0L - lp) + lp * std::pow(1.0L - lr, static_cast<long double>(v));
    const long double value = std::exp(log_binomial(n - 1, v - 1)) *
                              std::pow(lp, static_cast<long double>(v)) *
                              std::pow(exclude, static_cast<long double>(n - v)) *
                              static_cast<long double>(rel[v]);
    pdf[v] = static_cast<double>(value);
  }
  return require_density(std::move(pdf), "fully_connected_site_pdf");
}

VotePdf bus_site_pdf(std::uint32_t n, double p, double r, BusArchitecture arch) {
  check_probability(p, "bus_site_pdf: p");
  check_probability(r, "bus_site_pdf: r");
  if (n < 2) throw std::invalid_argument("bus_site_pdf: need >= 2 sites");

  VotePdf pdf(n + 1, 0.0);
  const long double lp = static_cast<long double>(p);
  const long double lr = static_cast<long double>(r);

  const auto bus_up_term = [&](std::uint32_t v) {
    // Bus up: the component is exactly the set of up sites; our site plus
    // v-1 of the other n-1.
    return std::exp(log_binomial(n - 1, v - 1)) *
           std::pow(lp, static_cast<long double>(v)) *
           std::pow(1.0L - lp, static_cast<long double>(n - v)) * lr;
  };

  switch (arch) {
    case BusArchitecture::kSitesDieWithBus: {
      // Bus down kills every site; otherwise binomial over the other sites.
      pdf[0] = static_cast<double>((1.0L - lr) + lr * (1.0L - lp));
      for (std::uint32_t v = 1; v <= n; ++v) {
        pdf[v] = static_cast<double>(bus_up_term(v));
      }
      break;
    }
    case BusArchitecture::kSitesSurviveBus: {
      pdf[0] = 1.0 - p;
      // Alone iff up and (bus down, or every other site down).
      pdf[1] = static_cast<double>(
          lp * ((1.0L - lr) + lr * std::pow(1.0L - lp,
                                             static_cast<long double>(n - 1))));
      for (std::uint32_t v = 2; v <= n; ++v) {
        pdf[v] = static_cast<double>(bus_up_term(v));
      }
      break;
    }
  }
  // This is precisely the f(1) discrepancy noted in the header: the exact
  // expression sums to 1 where the paper's printed form does not.
  return require_density(std::move(pdf), "bus_site_pdf");
}

} // namespace quora::core
