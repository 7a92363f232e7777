// Harness pieces shared by every workload: run options, the outcome a
// workload hands back, stage timers, and the in-memory span recorder of the
// traced run.
//
// Timing model. Every call into a layer is wrapped in a Timed scope that
// always adds its wall time to a named accumulator (the untraced run's
// per-stage times) and, when tracing is on, also records a span: name,
// start, end, parent span and operation id. Spans are kept in memory and
// written out once, after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run (the durable tsdb); created and
  /// removed by main(). The traced run's span file goes next to it.
  std::string work_dir;
};

/// One recorded span. Times are nanoseconds since the tracer's origin.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into Tracer::spans(), -1 = top level
  std::uint64_t op = 0;      // operation id (0 = not tied to one op)
};

/// Records spans from the benchmark's single driving thread. Disabled, it
/// records nothing and costs one branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span as a child of the innermost open span.
  std::int32_t open(const char* name, std::uint64_t op, Clock::time_point t);
  void close(std::int32_t id, Clock::time_point t);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Wall seconds per span name prefix ("<layer>." or "stage."), minus the
  /// time the span's children cover: each layer's self time.
  std::map<std::string, double> self_seconds() const;

  /// Summed duration of top-level spans whose name starts with "stage.".
  double stage_seconds() const;

  /// Writes the spans as a JSON array. Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Wall-time accumulators keyed by stage name ("core.advance", ...).
using Timers = std::map<std::string, double>;

/// A timed call into a layer: adds its wall time to timers[name] and, when
/// tracing, records a span of the same name.
class Timed {
 public:
  Timed(Tracer& tracer, Timers& timers, const char* name,
        std::uint64_t op = 0)
      : tracer_(tracer), timers_(timers), name_(name), t0_(Clock::now()) {
    if (tracer_.enabled()) id_ = tracer_.open(name, op, t0_);
  }
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the scope early; returns its duration in seconds.
  double stop() {
    if (done_) return elapsed_;
    done_ = true;
    const auto t1 = Clock::now();
    elapsed_ = seconds(t0_, t1);
    timers_[name_] += elapsed_;
    if (id_ >= 0) tracer_.close(id_, t1);
    return elapsed_;
  }

 private:
  Tracer& tracer_;
  Timers& timers_;
  const char* name_;
  Clock::time_point t0_;
  std::int32_t id_ = -1;
  bool done_ = false;
  double elapsed_ = 0.0;
};

/// What one workload run hands back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Check failures (empty = every output checked out).
  std::vector<std::string> errors;
  /// Per measured round: operations per second of its timed phase, and
  /// process CPU milliseconds (all threads) per operation.
  std::vector<double> round_ops_per_s;
  std::vector<double> round_cpu_ms_per_op;
  /// Process start to the first timed round (a cold set-up).
  double setup_s = 0.0;
  /// Peak resident set at the end of the first round, in MB: later rounds
  /// only reuse the heap, and how many fit depends on the machine's speed.
  double peak_rss_mb = 0.0;
  /// Traced runs: the independently timed walls of the traced rounds and
  /// of the untraced rounds paired with them.
  double untraced_round_s = 0.0;
  double traced_round_s = 0.0;
  /// Per-layer figures (names as in BENCHMARK.json's per_layer list).
  std::map<std::string, double> layer;

  void fail(std::string what) { errors.push_back(std::move(what)); }
};

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

/// Process CPU time (all threads, user + system) in seconds.
double process_cpu_seconds();
/// Peak resident set size of the process in MB.
double process_peak_rss_mb();
/// Threads the process currently has.
int thread_count();
/// Cores this process may run on (what nproc prints).
int core_count();

/// The rounds of a workload. A run measures whole rounds for about
/// opt.seconds of wall time, counted from the first round's start (so a
/// round's own set-up counts, the cold set-up before it does not): an
/// untraced run starts another round while one more average round fits
/// (at least one round); a traced run first runs one untraced warm-up
/// round, then pairs of a traced and an untraced round while a pair fits
/// (at least one pair); the pairs give the tracing overhead.
///
///   RoundPlan plan(opt, tracer, out);
///   while (plan.next()) {
///     ...per-round set-up...
///     plan.start();
///     ...timed phase...
///     plan.stop(ops);
///     ...checks...
///   }
class RoundPlan {
 public:
  RoundPlan(const Options& opt, Tracer& tracer, Outcome& out)
      : opt_(opt), tracer_(tracer), out_(out) {}

  bool next();
  /// Starts the timed phase (the first call ends the cold set-up).
  void start();
  /// Ends the timed phase of a round of `ops` operations; returns its wall.
  double stop(std::uint64_t ops);

  int index() const noexcept { return round_; }
  int rounds() const noexcept { return round_ + 1; }
  bool traced() const noexcept {
    return opt_.trace && round_ > 0 && round_ % 2 == 1;
  }
  /// Rounds whose figures are the untraced measurement.
  bool measured() const noexcept { return !opt_.trace || (round_ > 0 && !traced()); }

 private:
  const Options& opt_;
  Tracer& tracer_;
  Outcome& out_;
  int round_ = -1;
  double spent_s_ = 0.0;  // wall since the first round started
  Clock::time_point first_start_;
  Clock::time_point t0_;
  double cpu0_ = 0.0;
};

/// Taken during static initialisation, before main(): the cold set-up is
/// timed from here.
extern Clock::time_point g_process_start;

void run_daemon_day(const Options& opt, Tracer& tracer, Outcome& out);
void run_fanin_replay(const Options& opt, Tracer& tracer, Outcome& out);
void run_portal_live(const Options& opt, Tracer& tracer, Outcome& out);
int run_self_test();

}  // namespace e2e
