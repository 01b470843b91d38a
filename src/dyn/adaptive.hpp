#pragma once

#include <cstdint>

#include "adapt/controller.hpp"
#include "core/reassign.hpp"
#include "sim/simulator.hpp"

namespace quora::dyn {

/// The closed loop of §4.3 on the access-level simulator: a thin
/// `sim::AccessObserver` driver of `adapt::AdaptiveController`, playing the
/// role `msg::Cluster::handle_adapt_epoch` plays for the message level.
///
/// Sampling follows the paper's suggestion of piggy-backing on access
/// processing: each access whose origin is up records one (site,
/// votes-reachable) sample into the controller's footnote-4 estimator, and
/// every access contributes one read/write label to a decayed estimate of
/// the read rate alpha. Every `reassess_every` accesses the controller runs
/// one epoch against the assignment effective at the access's origin; an
/// epoch that says install goes through the version-numbered QR protocol.
class AdaptiveReassigner : public sim::AccessObserver {
public:
  /// The controller's knobs (threshold, dwell, forgetting, objective and
  /// write floor, min_samples, site reliability) plus the access cadence.
  /// The defaults re-run the optimizer every 2,000 accesses, install on a
  /// single above-threshold epoch, and halve the evidence at each epoch.
  ///
  /// The write floor is not merely a throughput preference: an agent that
  /// installs q_w = T can essentially never reassign again — installation
  /// itself requires a write quorum under the old assignment — so
  /// `Objective::kAvailability` (no floor) lets one read-heavy phase lock
  /// the system into read-one/write-all forever (the abl_dynamic_qr bench
  /// reproduces exactly that). When the floor is infeasible on the current
  /// estimate the controller holds the present assignment.
  struct Options : adapt::AdaptiveController::Options {
    Options();
    /// Accesses between controller epochs (the access-level counterpart of
    /// `epoch_length`, which this driver does not read).
    std::uint64_t reassess_every = 2'000;
    /// Accesses, counted undecayed, before the first epoch runs. The
    /// controller's own `min_samples` compares against the decayed pooled
    /// total, which a short cadence with strong forgetting keeps bounded.
    std::uint64_t warmup_accesses = 4'000;
  };

  AdaptiveReassigner(const net::Topology& topo, core::QuorumReassignment& qr)
      : AdaptiveReassigner(topo, qr, Options{}) {}
  AdaptiveReassigner(const net::Topology& topo, core::QuorumReassignment& qr,
                     const Options& options);

  void on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) override;

  /// Number of successful installs performed so far.
  std::uint64_t installs() const noexcept { return installs_; }
  /// Current estimate of the read fraction alpha.
  double estimated_alpha() const;
  const adapt::AdaptiveController& controller() const noexcept {
    return controller_;
  }

private:
  core::QuorumReassignment* qr_;
  adapt::AdaptiveController controller_;
  std::uint64_t reassess_every_;
  std::uint64_t warmup_accesses_;

  double read_weight_ = 0.0;
  double write_weight_ = 0.0;
  std::uint64_t since_reassess_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t installs_ = 0;
};

} // namespace quora::dyn
