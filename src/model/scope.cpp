#include "model/scope.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/chaos_audit.hpp"
#include "io/topology_io.hpp"

namespace quora::model {
namespace {

/// Splits the raw text into the model-only directives (`depth`,
/// `states`) and the remaining chaos-dialect lines. Removed lines are
/// replaced with blanks so `io::ParseError` line numbers reported by the
/// downstream parser still match the original file.
struct SplitText {
  std::string chaos_text;
  std::uint64_t max_depth = Scope{}.max_depth;
  std::uint64_t max_states = Scope{}.max_states;
  bool has_depth = false;
  bool has_states = false;
};

SplitText split_model_text(std::istream& in) {
  SplitText out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string directive;
    ls >> directive;
    if (directive == "depth" || directive == "states") {
      std::uint64_t value = 0;
      if (!(ls >> value) || value == 0) {
        throw io::ParseError(line_no,
                             "'" + directive + "' needs a positive count");
      }
      std::string trailing;
      if (ls >> trailing && trailing[0] != '#') {
        throw io::ParseError(line_no, "trailing junk after '" + directive +
                                          "': " + trailing);
      }
      if (directive == "depth") {
        out.max_depth = value;
        out.has_depth = true;
      } else {
        out.max_states = value;
        out.has_states = true;
      }
      out.chaos_text += '\n';
      continue;
    }
    out.chaos_text += line;
    out.chaos_text += '\n';
  }
  return out;
}

Scope scope_from_split(const SplitText& split) {
  Scope scope;
  scope.max_depth = split.max_depth;
  scope.max_states = split.max_states;
  std::istringstream chaos_in(split.chaos_text);
  scope.chaos = fault::load_chaos(chaos_in);
  bool glue = false;  // previous action was a fault we may extend
  for (const fault::Action& a : scope.chaos.plan.actions()) {
    if (a.kind == fault::Action::Kind::kAccess) {
      scope.accesses.push_back(a);
      glue = false;
      continue;
    }
    if (glue && !scope.faults.empty() &&
        scope.faults.back().back().time == a.time) {
      scope.faults.back().push_back(a);
    } else {
      scope.faults.push_back({a});
    }
    glue = true;
  }
  return scope;
}

} // namespace

Scope load_model(std::istream& in) {
  return scope_from_split(split_model_text(in));
}

Scope load_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model scope: " + path);
  return load_model(in);
}

io::AuditReport audit_model(std::istream& in) {
  using io::AuditCode;
  using io::AuditSeverity;
  io::AuditReport report;
  const auto add = [&report](AuditSeverity sev, std::string msg) {
    report.findings.push_back(io::AuditFinding{AuditCode::kModelScopeConfig,
                                               sev, std::move(msg)});
  };
  const auto error = [&add](std::string msg) {
    add(AuditSeverity::kError, std::move(msg));
  };

  std::string text(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>{});
  SplitText split;
  Scope scope;
  try {
    std::istringstream model_in(text);
    split = split_model_text(model_in);
    scope = scope_from_split(split);
  } catch (const std::exception& e) {
    report.findings.push_back(io::AuditFinding{
        AuditCode::kParseError, AuditSeverity::kError, e.what()});
    return report;
  }

  // Delegate the chaos-dialect checks (quorum consistency, site/link
  // ranges, mutation names) to the chaos auditor. Scopes are untimed, so
  // a synthetic far horizon keeps its schedule checks quiet.
  {
    std::string chaos_text = split.chaos_text;
    if (!(scope.chaos.horizon > 0.0)) chaos_text += "\nhorizon 1000000000\n";
    std::istringstream chaos_in(chaos_text);
    io::AuditReport chaos_report = fault::audit_chaos(chaos_in);
    for (io::AuditFinding& f : chaos_report.findings) {
      report.findings.push_back(std::move(f));
    }
  }
  if (scope.chaos.horizon > 0.0) {
    add(AuditSeverity::kWarning,
        "scope declares a 'horizon' but model exploration is untimed — the "
        "directive is ignored (use 'depth' to bound paths)");
  }
  if (scope.chaos.has_seed) {
    add(AuditSeverity::kWarning,
        "scope declares a 'seed' but model-mode transitions draw no "
        "randomness — the directive is ignored");
  }

  // Scope size: exploration is exponential in all of these.
  const std::uint32_t sites = scope.chaos.system->topology.site_count();
  if (sites > kMaxModelSites) {
    error("scope has " + std::to_string(sites) +
          " sites; bounded exploration handles at most " +
          std::to_string(kMaxModelSites));
  }
  if (scope.accesses.empty()) {
    error("scope schedules no 'access' action: with nothing submitted there "
          "is no protocol behaviour to check");
  } else if (scope.accesses.size() > kMaxModelAccesses) {
    error("scope schedules " + std::to_string(scope.accesses.size()) +
          " accesses; the explorer handles at most " +
          std::to_string(kMaxModelAccesses) + " concurrent accesses");
  }
  if (scope.faults.size() > kMaxModelFaults) {
    error("scope schedules " + std::to_string(scope.faults.size()) +
          " fault steps; the explorer handles at most " +
          std::to_string(kMaxModelFaults) +
          " (actions sharing an 'at' label fire as one atomic step)");
  }

  // Alphabet capability: model mode is deterministic and injector-free,
  // so anything stochastic or trigger-based cannot be expressed.
  std::vector<fault::Action> flat_faults;
  for (const std::vector<fault::Action>& group : scope.faults) {
    flat_faults.insert(flat_faults.end(), group.begin(), group.end());
  }
  for (const fault::Action& a : flat_faults) {
    using Kind = fault::Action::Kind;
    switch (a.kind) {
      case Kind::kArmCrashOnCommit:
        error("crash-on-commit triggers need the fault injector, which "
              "model mode does not attach — script 'site N down' / "
              "'site N up' pairs instead");
        break;
      case Kind::kSetAlpha:
      case Kind::kSetReliability:
      case Kind::kSetRho:
        error("regime shifts (alpha/reliability/rho) drive the Poisson "
              "processes, which model mode never schedules");
        break;
      default:
        break;
    }
  }
  if (!scope.chaos.plan.rules().empty()) {
    error("stochastic message windows ('window ... drop/delay/duplicate') "
          "cannot run under model exploration: every schedule is already "
          "enumerated deterministically");
  }
  if (!scope.chaos.plan.correlations().empty()) {
    error("'correlate' rules draw from the injector RNG, which model mode "
          "never consults");
  }

  // Budgets. The parser rejects zero, so only the upper bounds remain.
  if (std::string why = depth_budget_error(scope.max_depth); !why.empty()) {
    error(std::move(why));
  }
  if (std::string why = states_budget_error(scope.max_states); !why.empty()) {
    error(std::move(why));
  }
  return report;
}

std::string depth_budget_error(std::uint64_t depth) {
  if (depth == 0) return "'depth' needs a positive count";
  if (depth > kMaxModelDepth) {
    return "depth " + std::to_string(depth) + " exceeds the bound " +
           std::to_string(kMaxModelDepth);
  }
  return {};
}

std::string states_budget_error(std::uint64_t states) {
  if (states == 0) return "'states' needs a positive count";
  if (states > kMaxModelStates) {
    return "state budget " + std::to_string(states) + " exceeds the bound " +
           std::to_string(kMaxModelStates);
  }
  return {};
}

io::AuditReport audit_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model scope: " + path);
  return audit_model(in);
}

} // namespace quora::model
