// model_crash: the crash-cleanup scope of examples/model with its seeded
// mutation off, explored under DPOR up to the scope's state budget. It
// drives the same msg::Cluster code as msg_drift, untimed: a by-value
// snapshot, a step and a fingerprint per state.

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "model/explorer.hpp"
#include "model/scope.hpp"
#include "msg/cluster.hpp"
#include "msg/invariants.hpp"
#include "quorum/quorum_spec.hpp"
#include "rng/xoshiro256ss.hpp"

namespace pb {
namespace {

using quora::msg::Cluster;

quora::model::Scope load_scope(const Args& args) {
  quora::model::Scope scope = quora::model::load_model_file(
      args.root + "/examples/model/mutation_crash_cleanup.model");
  scope.chaos.mutations.clear();
  if (args.smoke) scope.max_states = 5'000;
  return scope;
}

/// Per-operation costs of the msg model API, from a seeded random walk
/// through the scope: at each state, snapshot (copy + rebind), fire one
/// enabled transition, fingerprint, audit safety.
struct WalkCosts {
  double snapshot_us = 0.0;
  double step_us = 0.0;
  double fingerprint_us = 0.0;
  double check_safety_us = 0.0;
  std::uint64_t steps = 0;
};

WalkCosts walk(const quora::model::Scope& scope, std::uint64_t seed,
               std::uint64_t steps) {
  const quora::net::Topology& topo = scope.chaos.system->topology;
  Cluster::Params params;
  params.model_mode = true;
  params.spec = scope.chaos.has_quorum ? scope.chaos.quorum
                                       : quora::quorum::majority(topo.total_votes());
  const Cluster root(topo, params, /*seed=*/1);

  quora::rng::Xoshiro256ss gen(seed);
  WalkCosts costs;
  double snapshot_s = 0.0;
  double step_s = 0.0;
  double fingerprint_s = 0.0;
  double safety_s = 0.0;
  Cluster cur = root;
  cur.model_rebind();
  std::uint32_t submitted = 0;
  std::uint32_t faulted = 0;
  std::uint64_t depth = 0;
  while (costs.steps < steps) {
    // Choices: unsent accesses, unfired faults, then enabled events.
    std::vector<std::uint32_t> free_accesses;
    for (std::uint32_t i = 0; i < scope.accesses.size(); ++i) {
      if (((submitted >> i) & 1u) == 0) free_accesses.push_back(i);
    }
    std::vector<std::uint32_t> free_faults;
    for (std::uint32_t i = 0; i < scope.faults.size(); ++i) {
      if (((faulted >> i) & 1u) == 0) free_faults.push_back(i);
    }
    const std::vector<Cluster::ModelEvent> events = cur.model_enabled_events();
    const std::size_t n = free_accesses.size() + free_faults.size() + events.size();
    if (n == 0 || depth >= scope.max_depth) {
      cur = root;
      cur.model_rebind();
      submitted = faulted = 0;
      depth = 0;
      continue;
    }
    const std::size_t pick = static_cast<std::size_t>(gen() % n);

    const double t0 = wall_s();
    Cluster next = cur;
    next.model_rebind();
    const double t1 = wall_s();
    if (pick < free_accesses.size()) {
      const quora::fault::Action& a = scope.accesses[free_accesses[pick]];
      next.model_submit_access(a.site, a.is_read);
      submitted |= 1u << free_accesses[pick];
    } else if (pick < free_accesses.size() + free_faults.size()) {
      const std::uint32_t f = free_faults[pick - free_accesses.size()];
      for (const quora::fault::Action& a : scope.faults[f]) next.model_apply_fault(a);
      faulted |= 1u << f;
    } else {
      const Cluster::ModelEvent& e =
          events[pick - free_accesses.size() - free_faults.size()];
      (void)next.model_step_event(e.seq);
    }
    const double t2 = wall_s();
    (void)next.model_fingerprint();
    const double t3 = wall_s();
    (void)quora::msg::check_safety(next);
    const double t4 = wall_s();
    snapshot_s += t1 - t0;
    step_s += t2 - t1;
    fingerprint_s += t3 - t2;
    safety_s += t4 - t3;
    cur = std::move(next);
    cur.model_rebind();
    ++depth;
    ++costs.steps;
  }
  const double per = 1e6 / static_cast<double>(costs.steps);
  costs.snapshot_us = snapshot_s * per;
  costs.step_us = step_s * per;
  costs.fingerprint_us = fingerprint_s * per;
  costs.check_safety_us = safety_s * per;
  return costs;
}

} // namespace

Result run_model_crash(const Args& args) {
  // One job: every lane explores the same scope to its verdict, and every
  // exploration must end the same way.
  struct Verdicts {
    std::uint64_t runs = 0;
    quora::model::Stats stats;
    bool violation = false;
    bool repeats_agree = true;
  };
  struct Lane {
    const Args& args;
    Verdicts& verdicts;
    quora::model::Scope scope;
    std::optional<quora::model::Explorer> explorer;
    bool violation = false;
    void setup(std::uint32_t /*job*/) {
      explorer.reset();  // it refers to `scope`
      scope = load_scope(args);
      explorer.emplace(scope);
    }
    void run(std::uint32_t /*job*/) { violation = explorer->run().has_value(); }
    void finish(std::uint32_t /*job*/) {
      const quora::model::Stats& s = explorer->stats();
      if (verdicts.runs++ == 0) {
        verdicts.stats = s;
        verdicts.violation = violation;
      } else {
        verdicts.repeats_agree = verdicts.repeats_agree && violation == verdicts.violation &&
                                 s.explored == verdicts.stats.explored &&
                                 s.unique_states == verdicts.stats.unique_states;
      }
    }
  };

  Result res;
  Verdicts verdicts;
  measure_lanes(args, res, 1, [&] { return Lane{args, verdicts, {}, {}, false}; });
  const quora::model::Stats& stats = verdicts.stats;
  res.work = static_cast<double>(stats.unique_states);
  res.outputs.boolean("violation", verdicts.violation)
      .num("unique_states", stats.unique_states)
      .num("explored", stats.explored)
      .num("max_states", load_scope(args).max_states)
      .boolean("state_capped", stats.state_capped)
      .boolean("repeats_agree", verdicts.repeats_agree);
  if (!args.trace) return res;

  // Traced pass: one more exploration, on this thread, inside a span.
  SpanLog log;
  const quora::model::Scope scope = load_scope(args);
  quora::model::Explorer explorer(scope);
  const double t0 = wall_s();
  {
    Scoped span(&log, "model.run");
    (void)explorer.run();
  }
  const double traced_s = wall_s() - t0;
  const double untraced_s = res.run_s.front();
  res.fidelity["traced_run_reproduces_stats"] =
      explorer.stats().explored == stats.explored &&
      explorer.stats().unique_states == stats.unique_states;

  const WalkCosts costs =
      walk(scope, 0x5EED0000ULL + args.seed, args.smoke ? 500 : 20'000);
  auto& L = res.layers;
  L["model.explored"] = static_cast<double>(stats.explored);
  L["model.unique_states"] = static_cast<double>(stats.unique_states);
  L["model.transitions"] = static_cast<double>(stats.transitions);
  L["model.visited_hits"] = static_cast<double>(stats.visited_hits);
  L["model.sleep_pruned"] = static_cast<double>(stats.sleep_pruned);
  L["model.unique_frac"] =
      static_cast<double>(stats.unique_states) / static_cast<double>(stats.explored);
  L["model.us_per_explored"] = traced_s * 1e6 / static_cast<double>(stats.explored);
  L["msg.snapshot_us"] = costs.snapshot_us;
  L["msg.step_us"] = costs.step_us;
  L["msg.fingerprint_us"] = costs.fingerprint_us;
  L["msg.check_safety_us"] = costs.check_safety_us;
  L["trace.overhead_frac"] = traced_s / untraced_s - 1.0;
  if (!args.spans_path.empty()) log.write(args.spans_path);
  return res;
}

} // namespace pb
