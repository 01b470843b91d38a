// Golden-seed determinism: the simulation core must reproduce checked-in
// event/access transcripts byte for byte. The fixtures under
// tests/golden/ were recorded before the incremental-tracker /
// 4-ary-heap overhaul, so these tests pin the overhauled hot path to the
// original semantics: same event order, same tracker answers, same
// chaos-run decisions.
//
// To refresh a fixture intentionally (never silently), run the suite
// with QUORA_REGEN_GOLDEN=1 and commit the diff:
//
//   QUORA_REGEN_GOLDEN=1 ./tests/quora_tests --gtest_filter='GoldenDeterminism.*'

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "adapt/controller.hpp"
#include "fault/event_log.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "msg/cluster.hpp"
#include "net/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

#ifndef QUORA_GOLDEN_DIR
#error "QUORA_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif
#ifndef QUORA_EXAMPLES_DIR
#error "QUORA_EXAMPLES_DIR must point at examples/ (set by tests/CMakeLists.txt)"
#endif

namespace quora {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(QUORA_GOLDEN_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("QUORA_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && std::string(env) != "0";
}

/// Compares `actual` against the checked-in fixture, or rewrites the
/// fixture when QUORA_REGEN_GOLDEN is set.
void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    SUCCEED() << "regenerated " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing fixture " << path
                  << " (run with QUORA_REGEN_GOLDEN=1 to record it)";
  std::ostringstream expected;
  expected << in.rdbuf();
  // Compare sizes first for a readable failure, then find the first
  // diverging line so the diff is actionable.
  if (expected.str() == actual) {
    SUCCEED();
    return;
  }
  std::istringstream a(expected.str()), b(actual);
  std::string la, lb;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) break;
    if (!ga || !gb || la != lb) {
      FAIL() << "transcript diverges from " << path << " at line " << line
             << "\n  golden: " << (ga ? la : "<eof>")
             << "\n  actual: " << (gb ? lb : "<eof>");
    }
  }
  FAIL() << "transcript differs from " << path << " (same lines, different bytes?)";
}

/// Records every simulator event through the two observer interfaces,
/// with tracker answers baked into each line: a divergence in event
/// order, RNG consumption, *or* component labeling shows up as a byte
/// diff.
class GoldenRecorder : public sim::AccessObserver, public sim::NetworkObserver {
public:
  void on_access(const sim::Simulator& sim, const sim::AccessEvent& ev) override {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "a %.17g %u %c votes=%u max=%u\n", ev.time,
                  ev.site, ev.is_read ? 'r' : 'w',
                  sim.tracker().component_votes(ev.site),
                  sim.tracker().max_component_votes());
    transcript += buf;
  }

  void on_network_change(const sim::Simulator& sim, sim::EventKind kind,
                         std::uint32_t index) override {
    const char* name = "?";
    switch (kind) {
      case sim::EventKind::kSiteFail: name = "site-fail"; break;
      case sim::EventKind::kSiteRecover: name = "site-recover"; break;
      case sim::EventKind::kLinkFail: name = "link-fail"; break;
      case sim::EventKind::kLinkRecover: name = "link-recover"; break;
      case sim::EventKind::kAccess: name = "access"; break;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "n %.17g %s %u comps=%u\n", sim.now(), name,
                  index, sim.tracker().component_count());
    transcript += buf;
  }

  std::string transcript;
};

std::string record_simulator_run(const net::Topology& topo, std::uint64_t seed,
                                 std::uint64_t accesses,
                                 obs::Registry* registry = nullptr,
                                 obs::TraceRecorder* trace = nullptr) {
  sim::SimConfig config;
  sim::AccessSpec spec;
  sim::Simulator sim(topo, config, spec, seed);
  if (registry != nullptr) sim.set_metrics(registry);
  if (trace != nullptr) sim.set_trace(trace);
  GoldenRecorder recorder;
  sim.add_access_observer(&recorder);
  sim.add_network_observer(&recorder);
  sim.run_accesses(accesses);
  const auto& c = sim.counters();
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "end accesses=%llu sf=%llu sr=%llu lf=%llu lr=%llu t=%.17g\n",
                static_cast<unsigned long long>(c.accesses),
                static_cast<unsigned long long>(c.site_failures),
                static_cast<unsigned long long>(c.site_recoveries),
                static_cast<unsigned long long>(c.link_failures),
                static_cast<unsigned long long>(c.link_recoveries), sim.now());
  recorder.transcript += buf;
  return recorder.transcript;
}

TEST(GoldenDeterminism, SimulatorRing101) {
  const net::Topology topo = net::make_ring(101);
  expect_matches_golden("sim_ring101_seed42.log",
                        record_simulator_run(topo, 42, 3000));
}

TEST(GoldenDeterminism, SimulatorComplete101) {
  const net::Topology topo = net::make_fully_connected(101);
  expect_matches_golden("sim_complete101_seed7.log",
                        record_simulator_run(topo, 7, 1200));
}

// --- observability inertness ------------------------------------------
//
// The same golden fixtures, replayed with the full observability stack
// attached (trace recorder at a capacity that never overflows, metrics
// registry with every handle live). The transcripts must stay
// byte-identical: instrumentation is pure recording and may not perturb
// RNG draws, event order, or tracker answers. Skipped under
// QUORA_REGEN_GOLDEN — fixtures are always recorded unobserved.

TEST(GoldenDeterminism, SimulatorRing101Observed) {
  if (regen_requested()) GTEST_SKIP() << "fixtures regenerate unobserved";
  const net::Topology topo = net::make_ring(101);
  obs::Registry registry;
  obs::TraceRecorder trace(1 << 20);
  expect_matches_golden("sim_ring101_seed42.log",
                        record_simulator_run(topo, 42, 3000, &registry, &trace));
  if (obs::kEnabled) {
    // Vacuity guard: the run must actually have been observed.
    EXPECT_GT(trace.recorded(), 0u);
    EXPECT_EQ(trace.dropped(), 0u);
    const obs::Registry::Snapshot snap = registry.snapshot();
    ASSERT_FALSE(snap.counters.empty());
    std::uint64_t accesses = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "sim.accesses") accesses = value;
    }
    EXPECT_EQ(accesses, 3000u);
  } else {
    EXPECT_EQ(trace.recorded(), 0u);
  }
}

TEST(GoldenDeterminism, SimulatorComplete101Observed) {
  if (regen_requested()) GTEST_SKIP() << "fixtures regenerate unobserved";
  const net::Topology topo = net::make_fully_connected(101);
  obs::Registry registry;
  obs::TraceRecorder trace(1 << 20);
  expect_matches_golden("sim_complete101_seed7.log",
                        record_simulator_run(topo, 7, 1200, &registry, &trace));
  if (obs::kEnabled) {
    EXPECT_GT(trace.recorded(), 0u);
  }
}

/// Replays a shipped chaos plan exactly the way tools/quora_chaos does
/// and returns its byte-stable event log (plus end-state tail).
/// Optional observability sinks attach the full stack to the run.
std::string record_chaos_run(const std::string& plan_name,
                             obs::Registry* registry = nullptr,
                             obs::TraceRecorder* trace = nullptr) {
  const std::string plan_path =
      std::string(QUORA_EXAMPLES_DIR) + "/chaos/" + plan_name;
  const fault::ChaosSpec spec = fault::load_chaos_file(plan_path);
  EXPECT_TRUE(spec.system.has_value());
  const net::Topology& topo = spec.system->topology;

  msg::Cluster::Params params;
  if (spec.has_quorum) {
    params.spec = spec.quorum;
  } else {
    const net::Vote majority =
        static_cast<net::Vote>(topo.total_votes() / 2 + 1);
    params.spec = quorum::QuorumSpec{majority, majority};
  }
  params.max_retries = 2;
  params.config.reliability = 0.999999;
  params.config.rho = 1e-9;

  msg::Cluster cluster(topo, params, spec.seed);
  fault::FaultInjector injector(spec.plan, spec.seed);
  fault::EventLog log;
  cluster.attach_injector(&injector);
  cluster.attach_log(&log);
  if (registry != nullptr) cluster.set_metrics(registry);
  if (trace != nullptr) cluster.set_trace(trace);
  cluster.run_until(spec.horizon);

  std::ostringstream out;
  log.write(out);
  char tail[120];
  std::snprintf(tail, sizeof(tail),
                "end decided=%zu sent=%llu retries=%llu stale=%llu\n",
                cluster.outcomes().size(),
                static_cast<unsigned long long>(cluster.messages_sent()),
                static_cast<unsigned long long>(cluster.retries()),
                static_cast<unsigned long long>(cluster.stale_rejections()));
  return out.str() + tail;
}

// Replays a shipped chaos plan exactly the way tools/quora_chaos does and
// pins its byte-stable event log — the message-level cluster (tracker
// queries, QR gossip, retry RNG) rides the same overhauled core.
TEST(GoldenDeterminism, ChaosReassignMidPartition) {
  expect_matches_golden("chaos_reassign_mid_partition.log",
                        record_chaos_run("reassign_mid_partition.chaos"));
}

// The chaos half of the inertness proof: the message-level cluster with
// tracing and metrics at full verbosity (access/round/QR/fault events,
// latency histograms, injector counters) must replay the identical log.
TEST(GoldenDeterminism, ChaosReassignMidPartitionObserved) {
  if (regen_requested()) GTEST_SKIP() << "fixtures regenerate unobserved";
  obs::Registry registry;
  obs::TraceRecorder trace(1 << 20);
  expect_matches_golden("chaos_reassign_mid_partition.log",
                        record_chaos_run("reassign_mid_partition.chaos",
                                         &registry, &trace));
  if (obs::kEnabled) {
    EXPECT_GT(trace.recorded(), 0u);
    EXPECT_EQ(trace.dropped(), 0u);
    // The registry's view must agree with the cluster's own accounting
    // (spot-checked through the access counter).
    const obs::Registry::Snapshot snap = registry.snapshot();
    std::uint64_t grants = 0, denies = 0, accesses = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "cluster.accesses") accesses = value;
      if (name == "cluster.grants") grants = value;
      if (name.rfind("cluster.denies.", 0) == 0) denies += value;
    }
    EXPECT_GT(accesses, 0u);
    EXPECT_GT(grants, 0u);
    // Undecided accesses at the horizon keep this <= rather than ==.
    EXPECT_LE(grants + denies, accesses);
  }
}

// The chaos engine v2 surface in one golden: a geo-heterogeneous
// topology (per-link latency classes, domain annotations) under a
// scripted full-region outage. Pins the per-link latency draws, the
// domain-down/up fan-out, and the region breakdown machinery to a
// byte-stable transcript.
TEST(GoldenDeterminism, ChaosGeoRegionOutage) {
  expect_matches_golden("chaos_geo_region_outage.log",
                        record_chaos_run("geo_region_outage.chaos"));
}

// Inertness of the new per-domain metrics: attaching the full stack —
// including the per-region grant/deny counters — must not move a byte,
// and the rg0 outage must actually show up in the domain breakdown.
TEST(GoldenDeterminism, ChaosGeoRegionOutageObserved) {
  if (regen_requested()) GTEST_SKIP() << "fixtures regenerate unobserved";
  obs::Registry registry;
  obs::TraceRecorder trace(1 << 20);
  expect_matches_golden("chaos_geo_region_outage.log",
                        record_chaos_run("geo_region_outage.chaos", &registry,
                                         &trace));
  if (obs::kEnabled) {
    EXPECT_GT(trace.recorded(), 0u);
    const obs::Registry::Snapshot snap = registry.snapshot();
    std::uint64_t rg0_denies = 0, rg1_grants = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "cluster.domain.rg0.denies") rg0_denies = value;
      if (name == "cluster.domain.rg1.grants") rg1_grants = value;
    }
    // The outage denies accesses in rg0 while rg1 keeps granting.
    EXPECT_GT(rg0_denies, 0u);
    EXPECT_GT(rg1_grants, 0u);
  }
}

// Lossy, slow, duplicating links under three flap trains: the only
// golden where floods meet duplicate and delayed deliveries, so it pins
// flood deduplication, reply relaying and the FIFO clock under message
// faults.
TEST(GoldenDeterminism, ChaosFlappingLinks) {
  expect_matches_golden("chaos_flapping_links.log",
                        record_chaos_run("flapping_links.chaos"));
}

TEST(GoldenDeterminism, ChaosFlappingLinksObserved) {
  if (regen_requested()) GTEST_SKIP() << "fixtures regenerate unobserved";
  obs::Registry registry;
  obs::TraceRecorder trace(1 << 20);
  expect_matches_golden("chaos_flapping_links.log",
                        record_chaos_run("flapping_links.chaos", &registry,
                                         &trace));
  if (obs::kEnabled) {
    EXPECT_GT(trace.recorded(), 0u);
    const obs::Registry::Snapshot snap = registry.snapshot();
    std::uint64_t duplicates = 0, drops = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "fault.msg_duplicates") duplicates = value;
      if (name == "fault.msg_drops") drops = value;
    }
    EXPECT_GT(duplicates, 0u);
    EXPECT_GT(drops, 0u);
  }
}

// Coordinators crashed between their commit flood and their ack quorum:
// pins the crash-on-commit path, where a failed site's pending
// coordinations resolve and its flood state is cleared mid-protocol.
TEST(GoldenDeterminism, ChaosCrashDuringCommit) {
  expect_matches_golden("chaos_crash_during_commit.log",
                        record_chaos_run("crash_during_commit.chaos"));
}

TEST(GoldenDeterminism, ChaosCrashDuringCommitObserved) {
  if (regen_requested()) GTEST_SKIP() << "fixtures regenerate unobserved";
  obs::Registry registry;
  obs::TraceRecorder trace(1 << 20);
  expect_matches_golden("chaos_crash_during_commit.log",
                        record_chaos_run("crash_during_commit.chaos",
                                         &registry, &trace));
  if (obs::kEnabled) {
    EXPECT_GT(trace.recorded(), 0u);
    const obs::Registry::Snapshot snap = registry.snapshot();
    std::uint64_t crashed = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "cluster.denies.coordinator-crash") crashed = value;
    }
    EXPECT_GT(crashed, 0u);
  }
}

/// Retry-exhaustion fixture: a drop-everything window forces every
/// phase-1 flood to evaporate, so each access burns its full retry
/// budget under pure doubling backoff (jitter 0) and resolves
/// abandoned. The transcript pins the deterministic backoff schedule:
/// each `retry` line's timestamp advances by timeout + base * 2^k.
std::string record_backoff_run(obs::Registry* registry = nullptr,
                               obs::TraceRecorder* trace = nullptr) {
  const net::Topology topo = net::make_ring(5);
  msg::Cluster::Params params;
  params.spec = quorum::QuorumSpec{3, 3};
  params.phase_timeout = 0.2;
  params.max_retries = 3;
  params.backoff_base = 0.1;
  params.backoff_jitter = 0.0;   // pure doubling: 0.1, 0.2, 0.4
  params.access_budget = 2.0;    // generous: the budget is the retry count
  params.config.reliability = 0.999999;
  params.config.rho = 1e-9;

  fault::FaultPlan plan;
  plan.drop(0.0, 120.0, 1.0);  // nothing survives the wire

  msg::Cluster cluster(topo, params, 11);
  fault::FaultInjector injector(plan, 11);
  fault::EventLog log;
  cluster.attach_injector(&injector);
  cluster.attach_log(&log);
  if (registry != nullptr) cluster.set_metrics(registry);
  if (trace != nullptr) cluster.set_trace(trace);
  cluster.run_until(100.0);

  std::ostringstream out;
  log.write(out);
  char tail[120];
  std::snprintf(tail, sizeof(tail),
                "end decided=%zu retries=%llu dropped=%llu\n",
                cluster.outcomes().size(),
                static_cast<unsigned long long>(cluster.retries()),
                static_cast<unsigned long long>(cluster.messages_dropped()));
  return out.str() + tail;
}

TEST(GoldenDeterminism, ChaosBackoffExhaustion) {
  expect_matches_golden("chaos_backoff_exhaustion.log", record_backoff_run());
}

TEST(GoldenDeterminism, ChaosBackoffExhaustionObserved) {
  if (regen_requested()) GTEST_SKIP() << "fixtures regenerate unobserved";
  obs::Registry registry;
  obs::TraceRecorder trace(1 << 20);
  expect_matches_golden("chaos_backoff_exhaustion.log",
                        record_backoff_run(&registry, &trace));
  if (obs::kEnabled) {
    const obs::Registry::Snapshot snap = registry.snapshot();
    std::uint64_t retries = 0, abandoned = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "cluster.retries") retries = value;
      if (name == "cluster.denies.abandoned") abandoned = value;
    }
    EXPECT_GT(retries, 0u);
    EXPECT_GT(abandoned, 0u);
  }
}

/// Closed-loop adaptive fixture: a small ring starts on a read-optimized
/// assignment, then a scripted mid-run alpha drift flips the workload to
/// write-heavy. The attached controller re-estimates f(v) every epoch and
/// — after the hysteresis dwell — installs a better assignment through
/// the §2.2 QR protocol. The transcript pins the whole loop: epoch
/// timing, empirical availability read-outs, gain/streak bookkeeping,
/// and the install decision, all RNG-free and driven off the sim clock.
std::string record_adapt_drift_run(obs::Registry* registry = nullptr,
                                   obs::TraceRecorder* trace = nullptr) {
  const net::Topology topo = net::make_ring(9);
  msg::Cluster::Params params;
  params.spec = quorum::QuorumSpec{2, 8};  // read-optimized start
  params.alpha = 0.9;
  params.config.reliability = 0.96;
  params.config.rho = 1.0 / 128.0;

  fault::FaultPlan plan;
  plan.set_alpha(150.0, 0.05);  // drift: reads collapse mid-run

  adapt::AdaptiveController::Options opts;
  opts.epoch_length = 25.0;
  opts.threshold = 0.01;
  opts.dwell = 2;
  opts.min_samples = 64;
  opts.site_reliability = 0.96;
  adapt::AdaptiveController controller(topo.site_count(), topo.total_votes(),
                                       opts);

  msg::Cluster cluster(topo, params, 23);
  fault::FaultInjector injector(plan, 23);
  fault::EventLog log;
  cluster.attach_injector(&injector);
  cluster.attach_log(&log);
  cluster.attach_adaptive(&controller);
  if (registry != nullptr) cluster.set_metrics(registry);
  if (trace != nullptr) cluster.set_trace(trace);
  cluster.run_until(400.0);

  std::ostringstream out;
  log.write(out);
  char tail[160];
  std::snprintf(tail, sizeof(tail),
                "end decided=%zu epochs=%llu installs=%llu qr-installs=%zu\n",
                cluster.outcomes().size(),
                static_cast<unsigned long long>(controller.epochs()),
                static_cast<unsigned long long>(controller.installs_recommended()),
                cluster.installs().size());
  return out.str() + tail;
}

TEST(GoldenDeterminism, AdaptDriftRing9) {
  expect_matches_golden("adapt_drift_ring9.log", record_adapt_drift_run());
}

// Inertness of the adaptive loop's observability: the adapt.* counters
// and gain histograms must record without moving a byte, and the drift
// run must actually have adapted (epochs ticked, an install landed).
TEST(GoldenDeterminism, AdaptDriftRing9Observed) {
  if (regen_requested()) GTEST_SKIP() << "fixtures regenerate unobserved";
  obs::Registry registry;
  obs::TraceRecorder trace(1 << 20);
  expect_matches_golden("adapt_drift_ring9.log",
                        record_adapt_drift_run(&registry, &trace));
  if (obs::kEnabled) {
    EXPECT_GT(trace.recorded(), 0u);
    const obs::Registry::Snapshot snap = registry.snapshot();
    std::uint64_t epochs = 0, installs = 0;
    for (const auto& [name, value] : snap.counters) {
      if (name == "adapt.epochs") epochs = value;
      if (name == "adapt.installs") installs = value;
    }
    EXPECT_GT(epochs, 0u);
    EXPECT_GT(installs, 0u);
  }
}

} // namespace
} // namespace quora
