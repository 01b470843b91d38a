// quora_perfbench: runs one or more benchmark workloads in-process and
// prints one JSON report line per workload on stdout. `run.py` builds
// this binary, checks the reports against the recorded reference and
// turns them into the benchmark's metrics; run it directly only to debug.
//
//   quora_perfbench --workload NAME|all [--seed K] [--seconds S]
//                   [--trace] [--smoke] [--root DIR]
//                   [--spans PREFIX]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "conn/bitwords.hpp"

namespace pb {

double SpanLog::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.seconds();
  }
  return sum;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    Json j;
    j.num("id", s.id).num("parent", s.parent).num("group", s.group);
    j.str("name", s.name).num("start", s.start).num("end", s.end);
    out << j.render() << '\n';
  }
  return static_cast<bool>(out);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string render_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
} // namespace

Json& Json::num(const std::string& key, double v) {
  fields_.emplace_back(key, render_double(v));
  return *this;
}
Json& Json::num(const std::string& key, std::uint64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}
Json& Json::boolean(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}
Json& Json::str(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, quote(v));
  return *this;
}
Json& Json::nums(const std::string& key, const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i == 0 ? "" : ",") + render_double(v[i]);
  }
  fields_.emplace_back(key, s + "]");
  return *this;
}
Json& Json::ints(const std::string& key, const std::vector<std::uint64_t>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i == 0 ? "" : ",") + std::to_string(v[i]);
  }
  fields_.emplace_back(key, s + "]");
  return *this;
}
Json& Json::obj(const std::string& key, const Json& v) {
  fields_.emplace_back(key, v.render());
  return *this;
}
std::string Json::render() const {
  std::string s = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    s += (i == 0 ? "" : ",") + quote(fields_[i].first) + ":" + fields_[i].second;
  }
  return s + "}";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

} // namespace pb

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "quora_perfbench: " << why << "\n"
            << "usage: quora_perfbench --workload NAME|all [--seed K] "
               "[--seconds S] [--trace] [--smoke] [--root DIR] "
               "[--spans PREFIX]\n";
  std::exit(2);
}

/// Resets VmHWM so each workload of an `all` run reports its own peak.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

pb::Result run_one(const std::string& name, const pb::Args& args) {
  if (name == "figures_dense" || name == "figures_sparse") {
    return pb::run_figures(args);
  }
  if (name == "msg_drift") return pb::run_msg_drift(args);
  if (name == "model_crash") return pb::run_model_crash(args);
  usage("unknown workload '" + name + "'");
}

} // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        args.workload = value();
      } else if (arg == "--seed") {
        args.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        args.seconds = std::stod(value());
      } else if (arg == "--trace") {
        args.trace = true;
      } else if (arg == "--smoke") {
        args.smoke = true;
      } else if (arg == "--root") {
        args.root = value();
      } else if (arg == "--spans") {
        args.spans_path = value();
      } else {
        usage("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (args.workload.empty()) usage("--workload is required");

  const std::vector<std::string> names =
      args.workload == "all"
          ? std::vector<std::string>{"figures_dense", "figures_sparse",
                                     "msg_drift", "model_crash"}
          : std::vector<std::string>{args.workload};
  pb::Json build;
  build.str("compiler", PB_COMPILER)
      .str("flags", PB_FLAGS)
      .str("build_type", PB_BUILD_TYPE)
      .boolean("quora_obs", PB_QUORA_OBS != 0)
      .str("bits_kernel", quora::conn::bits::active_kernel());

  for (const std::string& name : names) {
    pb::Args one = args;
    one.workload = name;
    if (!one.spans_path.empty()) one.spans_path += "-" + name + ".jsonl";
    reset_peak_rss();
    pb::Result r;
    try {
      r = run_one(name, one);
    } catch (const std::exception& e) {
      std::cerr << "quora_perfbench: " << name << ": " << e.what() << '\n';
      return 1;
    }
    pb::Json layers;
    for (const auto& [k, v] : r.layers) layers.num(k, v);
    pb::Json fidelity;
    for (const auto& [k, v] : r.fidelity) fidelity.boolean(k, v);
    pb::Json report;
    report.str("workload", name)
        .num("seed", args.seed)
        .num("workers", static_cast<std::uint64_t>(pb::kWorkers))
        .boolean("smoke", args.smoke)
        .boolean("trace", args.trace)
        .obj("build", build)
        .nums("setup_s", r.setup_s)
        .nums("run_s", r.run_s)
        .nums("cpu_s", r.cpu_s)
        .ints("job", r.job)
        .num("work", r.work)
        .num("peak_rss_mb", r.peak_rss_mb)
        .obj("outputs", r.outputs)
        .obj("layers", layers)
        .obj("fidelity", fidelity);
    std::cout << report.render() << std::endl;
  }
  return 0;
}
