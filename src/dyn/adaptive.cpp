#include "dyn/adaptive.hpp"

namespace quora::dyn {

AdaptiveReassigner::Options::Options() {
  threshold = 0.01;
  dwell = 1;
  forget = 0.5;
  objective = adapt::AdaptiveController::Objective::kWriteConstrained;
  min_write_availability = 0.05;
}

AdaptiveReassigner::AdaptiveReassigner(const net::Topology& topo,
                                       core::QuorumReassignment& qr,
                                       const Options& options)
    : qr_(&qr),
      controller_(topo.site_count(), topo.total_votes(), options),
      reassess_every_(options.reassess_every),
      warmup_accesses_(options.warmup_accesses) {}

double AdaptiveReassigner::estimated_alpha() const {
  const double total = read_weight_ + write_weight_;
  return total > 0.0 ? read_weight_ / total : 0.5;
}

void AdaptiveReassigner::on_access(const sim::Simulator& sim,
                                   const sim::AccessEvent& ev) {
  // Footnote 4: a site observes only while operational; the controller's
  // read-out puts the down mass back at v = 0.
  if (sim.network().is_site_up(ev.site)) {
    controller_.histogram().record(ev.site, sim.tracker().component_votes(ev.site));
  }
  (ev.is_read ? read_weight_ : write_weight_) += 1.0;
  ++accesses_;
  ++since_reassess_;
  if (since_reassess_ < reassess_every_ || accesses_ < warmup_accesses_) return;
  since_reassess_ = 0;

  const adapt::AdaptiveController::Decision d = controller_.epoch(
      estimated_alpha(), qr_->effective(sim.tracker(), ev.site).spec);
  if (d.install && qr_->try_install(sim.tracker(), ev.site, d.spec)) ++installs_;
  const double forget = controller_.options().forget;
  read_weight_ *= forget;
  write_weight_ *= forget;
}

} // namespace quora::dyn
