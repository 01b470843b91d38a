// figures_dense / figures_sparse: the paper's §5 measurement protocol
// (metrics::measure_curves) followed by the Figure-1 optimizer for each
// evaluation alpha. The traced run re-drives the same public calls
// measure_curves makes, batch by batch, so the per-layer times can be
// read from outside the library; it must reproduce measure_curves bit
// for bit.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "conn/component_tracker.hpp"
#include "conn/live_network.hpp"
#include "core/optimize.hpp"
#include "metrics/collectors.hpp"
#include "metrics/experiment.hpp"
#include "net/builders.hpp"
#include "sim/batch.hpp"
#include "sim/simulator.hpp"

namespace pb {
namespace {

using quora::conn::ComponentTracker;
using quora::conn::LiveNetwork;
using quora::metrics::CurveResult;
using quora::metrics::MeasurePolicy;
using quora::metrics::VotesSeenCollector;
using quora::net::Topology;
using quora::sim::Simulator;

struct Setup {
  std::vector<Topology> topologies;
  quora::sim::SimConfig config;
  MeasurePolicy policy;
};

/// figures_dense: Topology 256 and the fully connected Topology 4949 (the
/// fig7x pair). figures_sparse: Topologies 0, 1, 2, 4 and 16 (Figures
/// 2-6). All on the paper's 101 sites.
Setup make_setup(const Args& args) {
  Setup s;
  if (args.workload == "figures_dense") {
    s.topologies.push_back(quora::net::make_ring_with_chords(101, 256));
    s.topologies.push_back(quora::net::make_fully_connected(101));
  } else {
    for (const std::uint32_t chords : {0u, 1u, 2u, 4u, 16u}) {
      s.topologies.push_back(quora::net::make_ring_with_chords(101, chords));
    }
  }
  // The CI target is 0, so every topology runs to the protocol's batch
  // cap: the stopping rule still runs, but the work done (and with it
  // run_s) no longer depends on the seed.
  s.policy.batch.target_half_width = 0.0;
  if (args.smoke) {
    s.config.warmup_accesses = 2'000;
    s.config.accesses_per_batch = 20'000;
    s.policy.batch.max_batches = 8;
  }
  s.policy.seed = 0xC0FFEEULL + args.seed;
  s.policy.threads = kWorkers;
  return s;
}

struct FigureRun {
  std::vector<CurveResult> curves;
  std::vector<std::vector<quora::core::OptResult>> optima;  // [topology][alpha]
};

void optimize_all(const CurveResult& c, std::vector<quora::core::OptResult>& out) {
  const quora::core::AvailabilityCurve curve = c.pooled_curve();
  for (const double alpha : c.alphas) {
    out.push_back(quora::core::optimize_exhaustive(curve, alpha));
  }
}

/// The untraced measured phase: one public call per topology.
FigureRun run_plain(const Setup& s) {
  FigureRun r;
  for (const Topology& topo : s.topologies) {
    r.curves.push_back(quora::metrics::measure_curves(topo, s.config, s.policy));
    r.optima.emplace_back();
    optimize_all(r.curves.back(), r.optima.back());
  }
  return r;
}

/// Stream 0's measured batch as a replayable sequence: every liveness
/// change in order, and every access with the votes its site reached.
class StreamRecorder final : public quora::sim::AccessObserver,
                             public quora::sim::NetworkObserver {
public:
  enum Kind : std::uint8_t { kSite, kLink, kAccess };
  struct Op {
    std::uint32_t index = 0;
    Kind kind = kAccess;
    bool up = false;
    quora::net::Vote votes = 0;
  };

  explicit StreamRecorder(const Simulator& sim) {
    const LiveNetwork& live = sim.network();
    const Topology& topo = sim.topology();
    for (std::uint32_t s = 0; s < topo.site_count(); ++s) {
      sites_up_.push_back(live.is_site_up(s));
    }
    for (std::uint32_t l = 0; l < topo.link_count(); ++l) {
      links_up_.push_back(live.is_link_up(l));
    }
    // A 1M-access batch records about 1.4M ops on K101; reserving them
    // keeps reallocation out of stream 0's measured time.
    ops_.reserve(4'000'000);
  }

  void on_network_change(const Simulator&, quora::sim::EventKind kind,
                         std::uint32_t index) override {
    using quora::sim::EventKind;
    const bool site = kind == EventKind::kSiteFail || kind == EventKind::kSiteRecover;
    const bool up = kind == EventKind::kSiteRecover || kind == EventKind::kLinkRecover;
    ops_.push_back(Op{index, site ? kSite : kLink, up, 0});
  }
  void on_access(const Simulator& sim, const quora::sim::AccessEvent& ev) override {
    ops_.push_back(Op{ev.site, kAccess, false, sim.tracker().component_votes(ev.site)});
  }

  struct Replay {
    double seconds = 0.0;
    std::uint64_t changes = 0;
    std::uint64_t accesses = 0;
    std::uint64_t mismatches = 0;
  };

  /// Replays the recording into a fresh LiveNetwork + ComponentTracker,
  /// timing only the replay loop.
  Replay replay(const Topology& topo) const {
    LiveNetwork live(topo);
    ComponentTracker tracker(live);
    for (std::uint32_t s = 0; s < sites_up_.size(); ++s) {
      if (!sites_up_[s]) live.set_site_up(s, false);
    }
    for (std::uint32_t l = 0; l < links_up_.size(); ++l) {
      if (!links_up_[l]) live.set_link_up(l, false);
    }
    (void)tracker.component_count();  // initial labeling, outside the clock
    Replay r;
    const double t0 = wall_s();
    for (const Op& op : ops_) {
      switch (op.kind) {
        case kSite:
          live.set_site_up(op.index, op.up);
          ++r.changes;
          break;
        case kLink:
          live.set_link_up(op.index, op.up);
          ++r.changes;
          break;
        case kAccess:
          ++r.accesses;
          if (tracker.component_votes(op.index) != op.votes) ++r.mismatches;
          break;
      }
    }
    r.seconds = wall_s() - t0;
    return r;
  }

private:
  std::vector<bool> sites_up_;
  std::vector<bool> links_up_;
  std::vector<Op> ops_;
};

/// Per-batch figures of the traced pipeline.
struct BatchTrace {
  std::unique_ptr<VotesSeenCollector> collector;
  std::unique_ptr<StreamRecorder> recorder;  // stream 0 only
  double busy_s = 0.0;
  double measure_s = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t events = 0;
  ComponentTracker::Stats conn{};
};

std::uint64_t events_of(const Simulator::Counters& c) {
  return c.accesses + c.site_failures + c.site_recoveries + c.link_failures +
         c.link_recoveries;
}

/// Totals the traced pipeline accumulates across topologies.
struct Totals {
  double wave_wall_s = 0.0;
  double busy_s = 0.0;
  std::vector<double> batch_s;
  std::uint64_t accesses = 0;
  std::uint64_t events = 0;
  ComponentTracker::Stats conn{};
  double replay_s = 0.0;
  double stream0_measure_s = 0.0;
  std::uint64_t replay_changes = 0;
  std::uint64_t replay_mismatches = 0;
  std::uint64_t evaluations = 0;
};

/// measure_curves, re-driven through the same public calls with a span
/// around each: per-batch Simulator, warm-up, measured run with the
/// collector, reduction, in for_each_batch waves.
CurveResult traced_curves(const Topology& topo, const Setup& s, SpanLog& log,
                          std::uint64_t parent, Totals& tot) {
  const MeasurePolicy& policy = s.policy;
  CurveResult result;
  result.topology_name = topo.name();
  result.total = topo.total_votes();
  result.alphas = policy.alphas;
  for (quora::net::Vote q = 1; q <= result.total / 2; ++q) result.q_values.push_back(q);

  const std::size_t n_alpha = policy.alphas.size();
  const std::size_t n_q = result.q_values.size();
  std::vector<std::vector<quora::stats::BatchMeansController>> grid(n_alpha);
  for (auto& row : grid) {
    row.assign(n_q, quora::stats::BatchMeansController(policy.batch));
  }
  VotesSeenCollector pooled(topo);

  const unsigned threads = policy.threads;
  const std::uint32_t min_b = policy.batch.min_batches;
  const std::uint32_t max_b = std::max(policy.batch.max_batches, min_b);
  std::uint32_t done = 0;
  const auto any_needs_more = [&] {
    for (const auto& row : grid) {
      for (const auto& cell : row) {
        if (cell.needs_more()) return true;
      }
    }
    return false;
  };

  while (done < max_b) {
    const std::uint32_t target =
        done == 0 ? min_b
                  : std::min<std::uint32_t>(max_b, done + std::max(1u, threads));
    const std::uint32_t wave = target - done;
    std::vector<BatchTrace> outputs(wave);
    {
      Scoped wave_span(&log, "metrics.wave", parent);
      const double w0 = wall_s();
      quora::sim::for_each_batch(wave, threads, [&](std::uint32_t i) {
        const std::uint32_t b = done + i;
        BatchTrace& out = outputs[i];
        const double b0 = wall_s();
        Scoped batch(&log, "sim.batch", wave_span.id(), b);
        quora::sim::AccessSpec spec;
        spec.alpha = policy.sampling_alpha;
        spec.read_weights = policy.read_weights;
        spec.write_weights = policy.write_weights;
        std::unique_ptr<Simulator> sim;
        {
          Scoped span(&log, "sim.construct", batch.id(), b);
          sim = std::make_unique<Simulator>(topo, s.config, spec, policy.profile,
                                            policy.seed, b);
        }
        {
          Scoped span(&log, "sim.warmup", batch.id(), b);
          sim->run_accesses(s.config.warmup_accesses);
        }
        out.collector = std::make_unique<VotesSeenCollector>(topo);
        sim->add_access_observer(out.collector.get());
        if (b == 0) {
          out.recorder = std::make_unique<StreamRecorder>(*sim);
          sim->add_access_observer(out.recorder.get());
          sim->add_network_observer(out.recorder.get());
        }
        const Simulator::Counters c0 = sim->counters();
        const ComponentTracker::Stats k0 = sim->tracker().stats();
        const double m0 = wall_s();
        {
          Scoped span(&log, "sim.measure", batch.id(), b);
          sim->run_accesses(s.config.accesses_per_batch);
        }
        out.measure_s = wall_s() - m0;
        const ComponentTracker::Stats& k1 = sim->tracker().stats();
        out.accesses = sim->counters().accesses - c0.accesses;
        out.events = events_of(sim->counters()) - events_of(c0);
        out.conn.full_rebuilds = k1.full_rebuilds - k0.full_rebuilds;
        out.conn.incremental_applies = k1.incremental_applies - k0.incremental_applies;
        out.conn.compactions = k1.compactions - k0.compactions;
        out.busy_s = wall_s() - b0;
      });
      tot.wave_wall_s += wall_s() - w0;
    }
    {
      Scoped span(&log, "metrics.reduce", parent);
      for (const BatchTrace& out : outputs) {
        const quora::core::AvailabilityCurve curve(out.collector->read_pdf(),
                                                   out.collector->write_pdf());
        for (std::size_t a = 0; a < n_alpha; ++a) {
          for (std::size_t qi = 0; qi < n_q; ++qi) {
            grid[a][qi].add_batch(
                curve.availability(policy.alphas[a], result.q_values[qi]));
          }
        }
        pooled.merge(*out.collector);
      }
    }
    for (const BatchTrace& out : outputs) {
      tot.busy_s += out.busy_s;
      tot.batch_s.push_back(out.busy_s);
      tot.accesses += out.accesses;
      tot.events += out.events;
      tot.conn.full_rebuilds += out.conn.full_rebuilds;
      tot.conn.incremental_applies += out.conn.incremental_applies;
      tot.conn.compactions += out.conn.compactions;
      if (out.recorder) {
        Scoped span(&log, "conn.replay", parent, 0);
        const StreamRecorder::Replay r = out.recorder->replay(topo);
        tot.replay_s += r.seconds;
        tot.stream0_measure_s += out.measure_s;
        tot.replay_changes += r.changes;
        tot.replay_mismatches += r.mismatches;
      }
    }
    done = target;
    if (!any_needs_more()) break;
  }

  result.batches = done;
  result.mean.assign(n_alpha, std::vector<double>(n_q, 0.0));
  result.half_width.assign(n_alpha, std::vector<double>(n_q, 0.0));
  for (std::size_t a = 0; a < n_alpha; ++a) {
    for (std::size_t qi = 0; qi < n_q; ++qi) {
      const quora::stats::ConfidenceInterval ci = grid[a][qi].interval();
      result.mean[a][qi] = ci.mean;
      result.half_width[a][qi] = ci.half_width;
      result.max_half_width = std::max(result.max_half_width, ci.half_width);
    }
  }
  result.r_pdf = pooled.read_pdf();
  result.w_pdf = pooled.write_pdf();
  result.surv_pdf = pooled.max_component_pdf();
  return result;
}

bool same_curves(const CurveResult& a, const CurveResult& b) {
  return a.batches == b.batches && a.mean == b.mean && a.half_width == b.half_width &&
         a.q_values == b.q_values;
}

Json outputs_of(const Setup& s, const FigureRun& run) {
  Json out;
  for (std::size_t t = 0; t < s.topologies.size(); ++t) {
    const CurveResult& c = run.curves[t];
    std::vector<std::uint64_t> q_opt;
    std::vector<double> a_opt;
    for (const quora::core::OptResult& o : run.optima[t]) {
      q_opt.push_back(o.q_r());
      a_opt.push_back(o.value);
    }
    std::vector<double> mean;
    std::vector<double> half;
    for (std::size_t a = 0; a < c.alphas.size(); ++a) {
      mean.insert(mean.end(), c.mean[a].begin(), c.mean[a].end());
      half.insert(half.end(), c.half_width[a].begin(), c.half_width[a].end());
    }
    Json topo;
    topo.num("batches", static_cast<std::uint64_t>(c.batches))
        .nums("alphas", c.alphas)
        .num("q_count", static_cast<std::uint64_t>(c.q_values.size()))
        .ints("q_opt", q_opt)
        .nums("a_opt", a_opt)
        .nums("mean", mean)
        .nums("half_width", half);
    out.obj(s.topologies[t].name(), topo);
  }
  return out;
}

} // namespace

Result run_figures(const Args& args) {
  Result res;

  // Set-up builds the topologies and one probe simulator each.
  Setup s;
  const auto setup = [&] {
    s = make_setup(args);
    for (const Topology& topo : s.topologies) {
      const Simulator probe(topo, s.config, quora::sim::AccessSpec{}, s.policy.seed, 0);
      (void)probe.now();
    }
  };

  FigureRun run;
  const auto rep = [&] {
    const double c0 = cpu_s();
    const double t0 = wall_s();
    run = run_plain(s);
    res.run_s.push_back(wall_s() - t0);
    res.cpu_s.push_back(cpu_s() - c0);
  };
  measure(args, res, setup, rep);
  std::uint64_t batches = 0;
  for (const CurveResult& c : run.curves) batches += c.batches;
  const std::uint64_t per_batch =
      s.config.warmup_accesses + s.config.accesses_per_batch;
  res.work = static_cast<double>(batches) * static_cast<double>(per_batch);
  res.outputs = outputs_of(s, run);
  if (!args.trace) return res;

  SpanLog log;
  Totals tot;
  FigureRun traced;
  const double t0 = wall_s();
  {
    Scoped root(&log, "figures");
    for (const Topology& topo : s.topologies) {
      Scoped topo_span(&log, "topology " + topo.name(), root.id());
      traced.curves.push_back(traced_curves(topo, s, log, topo_span.id(), tot));
      Scoped span(&log, "core.optimize", topo_span.id());
      traced.optima.emplace_back();
      optimize_all(traced.curves.back(), traced.optima.back());
      for (const quora::core::OptResult& o : traced.optima.back()) {
        tot.evaluations += o.evaluations;
      }
    }
  }
  const double traced_s = wall_s() - t0 - tot.replay_s;

  bool identical = run.curves.size() == traced.curves.size();
  for (std::size_t t = 0; identical && t < run.curves.size(); ++t) {
    identical = same_curves(run.curves[t], traced.curves[t]);
  }
  res.fidelity["traced_curves_bit_identical"] = identical;
  res.fidelity["conn_replay_votes_match"] = tot.replay_mismatches == 0;

  const double accesses = static_cast<double>(tot.accesses);
  auto& L = res.layers;
  L["sim.construct_s"] = log.total("sim.construct");
  L["sim.warmup_s"] = log.total("sim.warmup");
  L["sim.measure_s"] = log.total("sim.measure");
  L["sim.batch_s.p50"] = median(tot.batch_s);
  L["sim.batch_s.max"] = *std::max_element(tot.batch_s.begin(), tot.batch_s.end());
  L["sim.batches"] = static_cast<double>(tot.batch_s.size());
  L["sim.events_per_access"] = static_cast<double>(tot.events) / accesses;
  L["metrics.wave_idle_frac"] =
      1.0 - tot.busy_s / (static_cast<double>(kWorkers) * tot.wave_wall_s);
  L["metrics.reduce_s"] = log.total("metrics.reduce");
  L["core.optimize_s"] = log.total("core.optimize");
  L["core.evaluations"] = static_cast<double>(tot.evaluations);
  L["conn.full_rebuilds_per_access"] =
      static_cast<double>(tot.conn.full_rebuilds) / accesses;
  L["conn.incremental_per_access"] =
      static_cast<double>(tot.conn.incremental_applies) / accesses;
  L["conn.compactions_per_access"] =
      static_cast<double>(tot.conn.compactions) / accesses;
  L["conn.replay_s"] = tot.replay_s;
  L["conn.ns_per_change"] =
      tot.replay_s * 1e9 / static_cast<double>(tot.replay_changes);
  L["conn.share"] = tot.replay_s / tot.stream0_measure_s;
  L["trace.overhead_frac"] = traced_s / res.run_s.front() - 1.0;
  if (!args.spans_path.empty()) log.write(args.spans_path);
  return res;
}

} // namespace pb
