// Contract macro semantics: live checks abort with a diagnostic in Debug
// and sanitizer builds, and compile out entirely (including the guarded
// expression) in Release. The suite is build-type aware via
// quora::contracts::kActive, so it is meaningful under every preset.

#include "core/contracts.hpp"

#include <gtest/gtest.h>

#include "core/availability.hpp"
#include "core/component_dist.hpp"

namespace {

using quora::contracts::kActive;

TEST(Contracts, PassingChecksAreSilent) {
  QUORA_ASSERT(1 + 1 == 2, "arithmetic works");
  QUORA_INVARIANT(true, "trivially holds");
  QUORA_PRECONDITION(2 > 1, "trivially holds");
  SUCCEED();
}

TEST(Contracts, ActiveFlagMatchesMacroState) {
  int evaluations = 0;
  [[maybe_unused]] const auto probe = [&evaluations]() {
    ++evaluations;
    return true;
  };
  QUORA_ASSERT(probe(), "probe must pass when evaluated");
  // Live contracts evaluate the expression exactly once; compiled-out
  // contracts must not evaluate it at all.
  EXPECT_EQ(evaluations, kActive ? 1 : 0);
}

TEST(ContractsDeathTest, AssertAbortsWithDiagnosticWhenActive) {
  if (!kActive) {
    QUORA_ASSERT(false, "compiled out: must not fire");
    SUCCEED();
    return;
  }
  EXPECT_DEATH(QUORA_ASSERT(false, "assert message"), "assertion failed");
}

TEST(ContractsDeathTest, InvariantAbortsWithDiagnosticWhenActive) {
  if (!kActive) {
    QUORA_INVARIANT(false, "compiled out: must not fire");
    SUCCEED();
    return;
  }
  EXPECT_DEATH(QUORA_INVARIANT(2 + 2 == 5, "invariant message"),
               "invariant failed");
}

TEST(ContractsDeathTest, PreconditionAbortsWithDiagnosticWhenActive) {
  if (!kActive) {
    QUORA_PRECONDITION(false, "compiled out: must not fire");
    SUCCEED();
    return;
  }
  EXPECT_DEATH(QUORA_PRECONDITION(false, "precondition message"),
               "precondition failed");
}

// A library-level invariant actually wired through the hot paths: the
// AvailabilityCurve constructor rejects mixtures that are not densities.
TEST(ContractsDeathTest, NonDensityMixtureTripsLibraryInvariant) {
  const quora::core::VotePdf bogus{0.5, 0.1, 0.1};  // sums to 0.7
  if (!kActive) {
    const quora::core::AvailabilityCurve curve(bogus);
    EXPECT_NEAR(curve.read_tail(0), 0.7, 1e-12);  // Release: garbage in...
    return;
  }
  EXPECT_DEATH({ const quora::core::AvailabilityCurve curve(bogus); },
               "must be a probability density");
}

TEST(ContractsDeathTest, MixtureMassLossTripsInvariant) {
  using quora::core::VotePdf;
  const std::vector<VotePdf> pdfs{VotePdf{0.5, 0.5, 0.0}, VotePdf{0.2, 0.3, 0.5}};
  // Weights summing to 1 is an API precondition (thrown), so a weight
  // vector that passes validation cannot lose mass; exercise the passing
  // path here and the throwing path for bad weights.
  const auto mixed = quora::core::mix_pdfs(pdfs, {0.25, 0.75});
  EXPECT_TRUE(quora::core::is_valid_pdf(mixed));
  EXPECT_THROW(quora::core::mix_pdfs(pdfs, {0.25, 0.25}), std::invalid_argument);
}

} // namespace
