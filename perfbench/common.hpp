// Shared plumbing of the quora_perfbench binary: clocks, the in-memory span
// recorder of the traced run, and a minimal JSON writer for the report
// `run.py` reads.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace pb {

/// Wall-clock seconds on the steady clock.
inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by the whole process (every thread).
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU seconds consumed by the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One traced interval. Spans of one batch or one cluster run share a
/// `group`; `parent` is the id of the enclosing span (0 = a root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

/// Keeps spans in memory (thread-safe: batch workers record concurrently)
/// and writes them out once, at the end of the run.
class SpanLog {
public:
  /// Opens a span and returns its id; close it with `end`.
  std::uint64_t begin(const std::string& name, std::uint64_t parent,
                      std::uint64_t group) {
    const double t = wall_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{spans_.size() + 1, parent, group, name, t, 0.0});
    return spans_.size();
  }
  void end(std::uint64_t id) {
    const double t = wall_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = t;
  }
  /// Sum of the durations of every span named `name`.
  double total(const std::string& name) const;
  /// One JSON object per line: id, parent, group, name, start, end.
  bool write(const std::string& path) const;

private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
public:
  Scoped(SpanLog* log, const std::string& name, std::uint64_t parent = 0,
         std::uint64_t group = 0)
      : log_(log), id_(log != nullptr ? log->begin(name, parent, group) : 0) {}
  ~Scoped() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::uint64_t id() const { return id_; }

private:
  SpanLog* log_;
  std::uint64_t id_;
};

/// A JSON object under construction; values are stored pre-rendered.
class Json {
public:
  Json& num(const std::string& key, double v);
  Json& num(const std::string& key, std::uint64_t v);
  Json& boolean(const std::string& key, bool v);
  Json& str(const std::string& key, const std::string& v);
  Json& nums(const std::string& key, const std::vector<double>& v);
  Json& ints(const std::string& key, const std::vector<std::uint64_t>& v);
  Json& obj(const std::string& key, const Json& v);
  std::string render() const;

private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string quote(const std::string& s);

/// Worker threads of every workload. A fixed workload input, never read
/// from the host: `measure_curves` adds batches one worker-width per wave,
/// so the worker count sets the batch count and with it the work done.
inline constexpr unsigned kWorkers = 4;

/// What quora_perfbench was asked to run.
struct Args {
  std::string workload;
  std::string root = ".";     // checkout root (examples/ live here)
  std::uint64_t seed = 0;     // workload seed slot
  double seconds = 10.0;      // measured-phase budget per invocation
  bool trace = false;
  bool smoke = false;
  std::string spans_path;     // traced run: file for this workload's spans
};

/// What a workload hands back. Timings are per repetition (for a
/// workload run in lanes, per job run, with the job index in `job`); `outputs`
/// carries the values `run.py` checks against the recorded reference;
/// `layers` the per-layer metrics (traced run only); `fidelity` the
/// traced run's self-checks (name -> passed).
struct Result {
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<double> cpu_s;
  std::vector<std::uint64_t> job;
  double work = 0.0;  // units of useful work per repetition
  double peak_rss_mb = 0.0;
  Json outputs;
  std::map<std::string, double> layers;
  std::map<std::string, bool> fidelity;
};

Result run_figures(const Args& args);
Result run_msg_drift(const Args& args);
Result run_model_crash(const Args& args);

/// Records `n` set-up samples into `out.setup_s`. Each sample is the mean
/// of back-to-back calls of `setup` repeated until 10 ms have passed (at
/// least one call), so a micro-second set-up is averaged over many calls.
template <class Setup>
void time_setup(Result& out, Setup& setup, int n) {
  for (int i = 0; i < n; ++i) {
    const double t0 = wall_s();
    double t = t0;
    int calls = 0;
    do {
      setup();
      ++calls;
      t = wall_s();
    } while (t - t0 < 0.010);
    out.setup_s.push_back((t - t0) / calls);
  }
}

/// Peak resident set of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// Runs the measured phase `rep` (which appends one entry to
/// `out.run_s`): once for a traced run, whose untraced pass is the
/// reference, else until `args.seconds` of measured time have passed.
/// Before every repetition, 11 set-up samples are taken and the last
/// `setup` call leaves the state `rep` runs on. Spread over the run like
/// this, the samples see the host over the whole run, as `run_s` does:
/// the speed of a shared host moves in steps that last from a fraction of
/// a second to minutes, and samples taken all at once read whichever step
/// they hit.
/// Peak memory is read after the first repetition, so it does not depend
/// on how many repetitions fit in the budget.
template <class Setup, class Rep>
void measure(const Args& args, Result& out, Setup setup, Rep rep) {
  double spent = 0.0;
  do {
    time_setup(out, setup, 11);
    rep();
    spent += out.run_s.back();
    if (out.run_s.size() == 1) out.peak_rss_mb = peak_rss_mb();
  } while (!args.trace && spent < args.seconds);
}

/// Runs a workload made of `jobs` independent single-threaded jobs in
/// kWorkers lanes side by side. Each lane owns a `Lane` from `make_lane()`
/// and takes job indices round robin from a shared counter. Per job run it
/// takes 5 set-up samples of `lane.setup(job)` (the last one leaves the
/// state the run uses), times `lane.run(job)` in wall and thread-CPU
/// seconds, and then calls `lane.finish(job)` under a lock, so a lane can
/// hand its outputs over. Lanes stop taking jobs once every job has run
/// and `args.seconds` have passed (a traced run: once every job has run).
/// Peak memory is read once every lane has finished its first job and
/// before any starts a second, while each still holds its finished job:
/// read later, it would depend on how the lanes' jobs happened to overlap.
///
/// The lanes are there for steadiness, not speed: on a shared host each
/// core's speed moves with its neighbours' load, largely independently of
/// the other cores, so samples pooled from every core spread less than
/// samples from one.
template <class MakeLane>
void measure_lanes(const Args& args, Result& out, std::uint32_t jobs,
                   MakeLane make_lane) {
  std::mutex mu;
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::barrier first_round(static_cast<std::ptrdiff_t>(kWorkers),
                           [&]() noexcept { out.peak_rss_mb = peak_rss_mb(); });
  const double t0 = wall_s();
  const auto body = [&] {
    bool arrived = false;
    try {
      auto lane = make_lane();
      for (;;) {
        const std::uint64_t k = next.fetch_add(1);
        if (failed.load()) break;
        if (k >= jobs && (args.trace || wall_s() - t0 >= args.seconds)) break;
        const auto job = static_cast<std::uint32_t>(k % jobs);
        Result samples;
        auto setup = [&] { lane.setup(job); };
        time_setup(samples, setup, 5);
        const double w0 = wall_s();
        const double c0 = thread_cpu_s();
        lane.run(job);
        const double c1 = thread_cpu_s();
        const double w1 = wall_s();
        {
          const std::lock_guard<std::mutex> lock(mu);
          out.setup_s.insert(out.setup_s.end(), samples.setup_s.begin(),
                             samples.setup_s.end());
          out.run_s.push_back(w1 - w0);
          out.cpu_s.push_back(c1 - c0);
          out.job.push_back(job);
          lane.finish(job);
        }
        if (!arrived) {
          arrived = true;
          first_round.arrive_and_wait();
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
      failed.store(true);
    }
    if (!arrived) first_round.arrive_and_drop();
  };
  std::vector<std::thread> lanes;
  for (unsigned i = 0; i < kWorkers; ++i) lanes.emplace_back(body);
  for (std::thread& t : lanes) t.join();
  if (error) std::rethrow_exception(error);
}

} // namespace pb
