// msg_drift: the adaptive-drift race of examples/chaos, run frozen and
// adaptive for three cluster seeds: six single-threaded jobs, run in lanes.
// The only workload where msg::Cluster, the fault injector and the
// adaptive controller do the work.

#include <memory>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "common.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"
#include "sim/batch.hpp"

namespace pb {
namespace {

using quora::msg::Cluster;

constexpr std::uint32_t kSeedsPerRun = 3;

/// One side of one seed: the objects `run_until` drives.
struct Side {
  bool adaptive = false;
  std::unique_ptr<quora::fault::FaultInjector> injector;
  std::unique_ptr<quora::adapt::AdaptiveController> controller;
  std::unique_ptr<Cluster> cluster;
};

bool shifts_failure_rates(const quora::fault::FaultPlan& plan) {
  for (const quora::fault::Action& a : plan.actions()) {
    if (a.kind == quora::fault::Action::Kind::kSetReliability ||
        a.kind == quora::fault::Action::Kind::kSetRho) {
      return true;
    }
  }
  return false;
}

/// Cluster parameters as `quora_chaos --race` sets them for this plan.
Cluster::Params params_for(const quora::fault::ChaosSpec& spec) {
  Cluster::Params p;
  p.spec = spec.quorum;
  p.max_retries = 2;
  if (shifts_failure_rates(spec.plan)) {
    p.config.reliability = 0.96;
    p.config.rho = 1.0 / 128.0;
  } else {
    p.config.reliability = 0.999999;
    p.config.rho = 1e-9;
  }
  return p;
}

/// Read fraction in force at the end of the plan (for timing epochs).
double final_alpha(const quora::fault::ChaosSpec& spec, double initial) {
  double alpha = initial;
  for (const quora::fault::Action& a : spec.plan.actions()) {
    if (a.kind == quora::fault::Action::Kind::kSetAlpha) alpha = a.value;
  }
  return alpha;
}

/// Side `adaptive` of cluster seed `k` of seed slot `slot`.
Side build_side(const quora::fault::ChaosSpec& spec, std::uint64_t slot,
                std::uint32_t k, bool adaptive) {
  const quora::net::Topology& topo = spec.system->topology;
  const std::uint64_t seed = spec.seed + slot * kSeedsPerRun + k;
  Side side;
  side.adaptive = adaptive;
  side.cluster = std::make_unique<Cluster>(topo, params_for(spec), seed);
  side.injector = std::make_unique<quora::fault::FaultInjector>(spec.plan, seed);
  side.cluster->attach_injector(side.injector.get());
  if (adaptive) {
    side.controller = std::make_unique<quora::adapt::AdaptiveController>(
        topo.site_count(), topo.total_votes(),
        quora::adapt::AdaptiveController::Options{});
    side.cluster->attach_adaptive(side.controller.get());
  }
  return side;
}

/// Every side of `seeds` cluster seeds, frozen before adaptive: side i is
/// job i of the measured phase.
std::vector<Side> build_sides(const quora::fault::ChaosSpec& spec, std::uint64_t slot,
                              std::uint32_t seeds) {
  std::vector<Side> sides;
  for (std::uint32_t k = 0; k < seeds; ++k) {
    for (const bool adaptive : {false, true}) {
      sides.push_back(build_side(spec, slot, k, adaptive));
    }
  }
  return sides;
}

struct SideStats {
  std::uint64_t decided = 0;
  std::uint64_t granted = 0;
  std::uint64_t tail_decided = 0;
  std::uint64_t tail_granted = 0;
  bool safe = true;
};

SideStats stats_of(const Cluster& c, double horizon) {
  SideStats st;
  for (const quora::msg::AccessOutcome& o : c.outcomes()) {
    ++st.decided;
    st.granted += o.granted ? 1 : 0;
    if (o.submit_time >= horizon * 0.5) {
      ++st.tail_decided;
      st.tail_granted += o.granted ? 1 : 0;
    }
  }
  st.safe = quora::msg::check_safety(c).ok();
  return st;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

Result run_msg_drift(const Args& args) {
  const std::string path = args.root + "/examples/chaos/adaptive_drift_race.chaos";
  // Smoke: one seed, same plan and horizon (the drift sits mid-horizon, so
  // a shorter run would drop the race's post-drift tail).
  const std::uint32_t seeds = args.smoke ? 1 : kSeedsPerRun;
  const std::uint32_t jobs = 2 * seeds;

  // The clusters borrow the topology inside `spec`, so a world is built
  // and dropped as a whole.
  struct World {
    quora::fault::ChaosSpec spec;
    std::vector<Side> sides;
  };
  // What one job's run produced; every repeat of a job must match its
  // first run.
  struct JobOut {
    std::uint64_t runs = 0;
    SideStats stats;
    double availability = 0.0;
    std::uint64_t epochs = 0;
    std::uint64_t installs = 0;
  };
  struct Outputs {
    std::vector<JobOut> jobs;
    std::vector<double> parse_s;
    bool safe = true;
    bool repeats_agree = true;
  };
  // Job j is side j of build_sides: cluster seed j / 2, adaptive if odd.
  struct Lane {
    const std::string& path;
    std::uint64_t slot;
    Outputs& out;
    std::unique_ptr<World> world;
    std::vector<double> parse_s;
    void setup(std::uint32_t job) {
      auto next = std::make_unique<World>();
      const double t0 = wall_s();
      next->spec = quora::fault::load_chaos_file(path);
      parse_s.push_back(wall_s() - t0);
      next->sides.push_back(build_side(next->spec, slot, job / 2, job % 2 == 1));
      world = std::move(next);
    }
    void run(std::uint32_t /*job*/) {
      world->sides.front().cluster->run_until(world->spec.horizon);
    }
    void finish(std::uint32_t job) {
      const Side& side = world->sides.front();
      JobOut now;
      now.stats = stats_of(*side.cluster, world->spec.horizon);
      now.availability = side.cluster->availability();
      if (side.controller) {
        now.epochs = side.controller->epochs();
        now.installs = side.controller->installs_recommended();
      }
      out.safe = out.safe && now.stats.safe;
      out.parse_s.insert(out.parse_s.end(), parse_s.begin(), parse_s.end());
      parse_s.clear();
      JobOut& first = out.jobs[job];
      if (first.runs++ == 0) {
        now.runs = first.runs;
        first = now;
      } else {
        out.repeats_agree = out.repeats_agree &&
                            now.stats.decided == first.stats.decided &&
                            now.stats.granted == first.stats.granted &&
                            now.availability == first.availability;
      }
    }
  };

  Result res;
  Outputs out;
  out.jobs.resize(jobs);
  measure_lanes(args, res, jobs,
                [&] { return Lane{path, args.seed, out, nullptr, {}}; });

  // Outputs: per seed, both sides; the race's pooled tail margin.
  std::vector<std::uint64_t> decided;
  std::vector<std::uint64_t> granted;
  std::vector<double> availability;
  SideStats pooled[2];
  std::uint64_t epochs = 0;
  std::uint64_t installs = 0;
  for (std::uint32_t j = 0; j < jobs; ++j) {
    const JobOut& o = out.jobs[j];
    decided.push_back(o.stats.decided);
    granted.push_back(o.stats.granted);
    availability.push_back(o.availability);
    SideStats& p = pooled[j % 2];
    p.tail_decided += o.stats.tail_decided;
    p.tail_granted += o.stats.tail_granted;
    epochs += o.epochs;
    installs += o.installs;
  }
  std::uint64_t total_decided = 0;
  for (const std::uint64_t d : decided) total_decided += d;
  res.work = static_cast<double>(total_decided);
  const double margin = ratio(pooled[1].tail_granted, pooled[1].tail_decided) -
                        ratio(pooled[0].tail_granted, pooled[0].tail_decided);
  res.outputs.ints("decided", decided)
      .ints("granted", granted)
      .nums("availability", availability)
      .boolean("safe", out.safe)
      .boolean("repeats_agree", out.repeats_agree)
      .num("tail_margin", margin)
      .num("adapt_epochs", epochs)
      .num("adapt_installs", installs);
  if (!args.trace) return res;

  // Traced pass: every side again, spread over the workers, with a span
  // per cluster run.
  SpanLog log;
  World world;
  world.spec = quora::fault::load_chaos_file(path);
  world.sides = build_sides(world.spec, args.seed, seeds);
  const std::vector<Side>& sides = world.sides;
  std::vector<double> side_s(sides.size(), 0.0);
  {
    Scoped root(&log, "msg_drift");
    quora::sim::for_each_batch(jobs, kWorkers, [&](std::uint32_t i) {
      Scoped span(&log, sides[i].adaptive ? "msg.run.adaptive" : "msg.run.frozen",
                  root.id(), i + 1);
      const double s0 = wall_s();
      sides[i].cluster->run_until(world.spec.horizon);
      side_s[i] = wall_s() - s0;
    });
  }
  // Both passes in thread-seconds: each job ran once in the untraced one.
  double untraced_s = 0.0;
  for (const double t : res.run_s) untraced_s += t;
  double traced_s = 0.0;
  for (const double t : side_s) traced_s += t;

  double frozen_s = 0.0;
  double adaptive_s = 0.0;
  std::uint64_t frozen_decided = 0;
  std::uint64_t adaptive_decided = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::uint64_t retries = 0;
  std::uint64_t all_granted = 0;
  std::uint64_t all_decided = 0;
  std::uint64_t denies[quora::msg::kDenyReasonCount] = {};
  bool reproduced = true;
  for (std::size_t i = 0; i < sides.size(); ++i) {
    const Cluster& c = *sides[i].cluster;
    const std::uint64_t n = c.outcomes().size();
    reproduced = reproduced && n == decided[i] &&
                 stats_of(c, world.spec.horizon).granted == granted[i];
    (sides[i].adaptive ? adaptive_s : frozen_s) += side_s[i];
    (sides[i].adaptive ? adaptive_decided : frozen_decided) += n;
    sent += c.messages_sent();
    dropped += c.messages_dropped();
    retries += c.retries();
    all_decided += n;
    for (const quora::msg::AccessOutcome& o : c.outcomes()) {
      all_granted += o.granted ? 1 : 0;
      ++denies[static_cast<std::size_t>(o.deny_reason)];
    }
  }
  res.fidelity["traced_runs_reproduce_decided"] = reproduced;

  // Epoch cost: the end-of-run controller, copied so the timed epochs
  // start from identical state each time.
  const Side& last = sides.back();
  const double alpha = final_alpha(world.spec, params_for(world.spec).alpha);
  const quora::quorum::QuorumSpec current = last.cluster->installs().empty()
                                                ? world.spec.quorum
                                                : last.cluster->installs().back().spec;
  std::vector<double> epoch_us;
  for (int i = 0; i < 200; ++i) {
    quora::adapt::AdaptiveController copy = *last.controller;
    const double e0 = wall_s();
    (void)copy.epoch(alpha, current);
    epoch_us.push_back((wall_s() - e0) * 1e6);
  }

  const double frozen_us = frozen_s * 1e6 / static_cast<double>(frozen_decided);
  const double adaptive_us = adaptive_s * 1e6 / static_cast<double>(adaptive_decided);
  auto& L = res.layers;
  L["fault.parse_s"] = median(out.parse_s);
  L["fault.timeline_actions"] = static_cast<double>(last.injector->timeline().size());
  L["msg.run_s.frozen"] = frozen_s;
  L["msg.run_s.adaptive"] = adaptive_s;
  L["msg.us_per_decided"] =
      (frozen_s + adaptive_s) * 1e6 / static_cast<double>(all_decided);
  L["msg.messages_per_decided"] = ratio(sent, all_decided);
  L["msg.ns_per_message"] = (frozen_s + adaptive_s) * 1e9 / static_cast<double>(sent);
  L["msg.dropped_frac"] = ratio(dropped, sent);
  L["msg.retries_per_decided"] = ratio(retries, all_decided);
  L["msg.granted_frac"] = ratio(all_granted, all_decided);
  for (std::size_t r = 1; r < quora::msg::kDenyReasonCount; ++r) {
    const auto reason = static_cast<quora::msg::DenyReason>(r);
    L[std::string("msg.deny.") + quora::msg::deny_reason_name(reason)] =
        ratio(denies[r], all_decided);
  }
  std::uint64_t epochs_run = 0;
  std::uint64_t installs_done = 0;
  for (const Side& side : sides) {
    if (!side.adaptive) continue;
    epochs_run += side.controller->epochs();
    installs_done += side.cluster->installs().size();
  }
  L["adapt.epochs"] = static_cast<double>(epochs_run);
  L["adapt.installs"] = static_cast<double>(installs_done);
  L["adapt.epoch_us"] = median(epoch_us);
  L["adapt.cost_frac"] = (adaptive_us - frozen_us) / frozen_us;
  L["trace.overhead_frac"] = traced_s / untraced_s - 1.0;
  if (!args.spans_path.empty()) log.write(args.spans_path);
  return res;
}

} // namespace pb
