#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace e2e {

Clock::time_point g_process_start = Clock::now();

std::int32_t Tracer::open(const char* name, std::uint64_t op,
                          Clock::time_point t) {
  Span s;
  s.name = name;
  s.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count();
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id, Clock::time_point t) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count();
  // Scopes nest, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const auto dot = s.name.find('.');
    const std::string layer = s.name.substr(0, dot);
    out[layer] += 1e-9 * static_cast<double>(s.end_ns - s.start_ns -
                                             child_ns[i]);
  }
  return out;
}

double Tracer::stage_seconds() const {
  std::int64_t ns = 0;
  for (const auto& s : spans_) {
    if (s.parent < 0 && s.name.rfind("stage.", 0) == 0) {
      ns += s.end_ns - s.start_ns;
    }
  }
  return 1e-9 * static_cast<double>(ns);
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

bool RoundPlan::next() {
  const int done = round_ + 1;
  if (done > 0) {
    const double per_round = spent_s_ / done;
    if (opt_.trace) {
      // Warm-up, then whole (traced, untraced) pairs.
      if (done >= 3 && done % 2 == 1 && spent_s_ + 2 * per_round > opt_.seconds) {
        return false;
      }
    } else if (spent_s_ + per_round > opt_.seconds) {
      return false;
    }
  }
  ++round_;
  return true;
}

void RoundPlan::start() {
  if (round_ == 0) {
    first_start_ = Clock::now();
    out_.setup_s = seconds(g_process_start, first_start_);
  }
  tracer_.set_enabled(traced());
  cpu0_ = process_cpu_seconds();
  t0_ = Clock::now();
}

double RoundPlan::stop(std::uint64_t ops) {
  const auto now = Clock::now();
  const double wall = seconds(t0_, now);
  const double cpu = process_cpu_seconds() - cpu0_;
  tracer_.set_enabled(false);
  std::fprintf(stderr, "round %d%s: %.3f s wall, %.3f s cpu, %llu ops\n",
               round_, traced() ? " (traced)" : measured() ? "" : " (warm-up)",
               wall, cpu, static_cast<unsigned long long>(ops));
  spent_s_ = seconds(first_start_, now);
  if (round_ == 0) out_.peak_rss_mb = process_peak_rss_mb();
  if (traced()) {
    out_.traced_round_s += wall;
  } else if (measured()) {
    out_.untraced_round_s += wall;
    out_.round_ops_per_s.push_back(static_cast<double>(ops) / wall);
    out_.round_cpu_ms_per_op.push_back(1e3 * cpu / static_cast<double>(ops));
  }
  return wall;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int thread_count() {
  std::ifstream is("/proc/self/status");
  std::string key;
  while (is >> key) {
    if (key == "Threads:") {
      int n = 0;
      is >> n;
      return n;
    }
  }
  return 0;
}

int core_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace e2e
