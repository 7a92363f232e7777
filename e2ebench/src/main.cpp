// e2ebench: one workload of the end-to-end benchmark per process.
//
//   e2ebench --workload <daemon_day|fanin_replay|portal_live> --seed <n>
//            --seconds <s> --trace <0|1> [--work-dir <dir>]
//   e2ebench --self-test [--work-dir <dir>]
//
// Human-readable progress goes to stderr; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones. Exits 1
// when an output check fails, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <unistd.h>

#include "harness.hpp"
#include "util/log.hpp"

namespace {

using namespace e2e;

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    // daemon_day
    {"day_s", "s"},
    {"archive_records_per_s", "records/s"},
    {"table1_jobs_per_s", "jobs/s"},
    {"tsdb_mpoints_per_s", "Mpoints/s"},
    {"tsdb_bytes_per_point", "B/point"},
    {"core.advance_s", "s"},
    {"collect.samples", "count"},
    {"collect.ms_per_sample", "ms"},
    {"transport.drain_s", "s"},
    {"pipeline.table1_s", "s"},
    {"pipeline.tsdb_ingest_s", "s"},
    {"tsdb.flush_s", "s"},
    {"tsdb.points", "count"},
    {"tsdb.series", "count"},
    {"tsdb.sealed_blocks", "count"},
    {"tsdb.segment_bytes", "B"},
    {"tsdb.tier_bytes", "B"},
    {"tsdb.wal_bytes", "B"},
    {"portal.pass_s", "s"},
    // fanin_replay
    {"replay_records_per_s", "records/s"},
    {"transport.spooled", "count"},
    {"transport.root_messages", "count"},
    {"transport.records_per_root_message", "records"},
    {"transport.requeued", "count"},
    {"transport.requeue_amplification", "ratio"},
    {"transport.deduped", "count"},
    // portal_live
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"queries_per_s", "queries/s"},
    {"append_mpoints_per_s", "Mpoints/s"},
    {"portal.search_ms", "ms"},
    {"portal.histograms_ms", "ms"},
    {"portal.detail_ms", "ms"},
    {"portal.timeseries_ms", "ms"},
    {"portal.rate_ms", "ms"},
    {"portal.power_ms", "ms"},
    {"portal.cache_hit_rate", "ratio"},
    {"portal.summary_rebuilds", "count"},
    {"portal.cache_evictions", "count"},
    {"tsdb.head_points", "count"},
    {"tsdb.append_s", "s"},
    // every workload, from the traced run
    {"self_s.core", "s"},
    {"self_s.transport", "s"},
    {"self_s.pipeline", "s"},
    {"self_s.tsdb", "s"},
    {"self_s.portal", "s"},
    {"self_s.harness", "s"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.stage_coverage", "ratio"},
    {"threads.max", "count"},
};

/// Top-level stage spans must cover the independently timed wall of the
/// traced rounds to within this share.
constexpr double kCoverageBound = 0.05;

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <daemon_day|fanin_replay|"
               "portal_live> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n       e2ebench --self-test "
               "[--work-dir <dir>]\n");
  return 2;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  // Spooling daemons warn once per failed publish; the benchmark reports
  // those counts itself.
  tacc::util::set_log_level(tacc::util::LogLevel::Error);
  if (self_test) return run_self_test();
  using Workload = void (*)(const Options&, Tracer&, Outcome&);
  const std::map<std::string, Workload> workloads = {
      {"daemon_day", run_daemon_day},
      {"fanin_replay", run_fanin_replay},
      {"portal_live", run_portal_live}};
  const auto workload = workloads.find(opt.workload);
  if (!have_workload || workload == workloads.end() || opt.seconds <= 0.0) {
    return usage();
  }
  if (opt.work_dir.empty()) {
    opt.work_dir = ".bench_build/e2ebench-run-" + std::to_string(getpid());
  }
  std::filesystem::create_directories(opt.work_dir);

  Tracer tracer(false);
  Outcome out;
  workload->second(opt, tracer, out);

  auto& layer = out.layer;
  if (layer["threads.max"] > core_count()) {
    out.fail("ran " + std::to_string(static_cast<int>(layer["threads.max"])) +
             " threads on " + std::to_string(core_count()) + " cores");
  }
  std::map<std::string, double> metrics;
  if (opt.trace) {
    const auto self = tracer.self_seconds();
    for (const char* l : {"core", "transport", "pipeline", "tsdb", "portal"}) {
      const auto it = self.find(l);
      layer[std::string("self_s.") + l] = it == self.end() ? 0.0 : it->second;
    }
    const auto stage = self.find("stage");
    layer["self_s.harness"] = stage == self.end() ? 0.0 : stage->second;
    layer["trace.spans"] = static_cast<double>(tracer.spans().size());
    layer["trace.overhead_pct"] =
        100.0 * (out.traced_round_s / out.untraced_round_s - 1.0);
    const double coverage = tracer.stage_seconds() / out.traced_round_s;
    layer["trace.stage_coverage"] = coverage;
    if (std::fabs(1.0 - coverage) > kCoverageBound) {
      out.fail("stage spans cover " + json_number(coverage) +
               " of the traced wall time");
    }
    // Next to the run's scratch directory, which is removed at exit.
    const std::string trace_path =
        (std::filesystem::path(opt.work_dir).parent_path() /
         ("e2ebench-trace-" + opt.workload + "-seed" +
          std::to_string(opt.seed) + ".json"))
            .string();
    if (!tracer.write(trace_path)) {
      std::fprintf(stderr, "warning: could not write %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "spans written to %s\n", trace_path.c_str());
    }
    for (const auto& m : kPerLayer) {
      metrics[m.name] = layer.count(m.name) ? layer[m.name] : 0.0;
    }
  } else {
    metrics["setup_s"] = out.setup_s;
    metrics["ops_per_s"] = median(out.round_ops_per_s);
    metrics["cpu_ms_per_op"] = median(out.round_cpu_ms_per_op);
    metrics["peak_rss_mb"] = out.peak_rss_mb;
  }
  for (const auto& [name, value] : layer) {
    std::fprintf(stderr, "  %-36s %.6g\n", name.c_str(), value);
  }
  for (const auto& e : out.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  const bool correct = out.errors.empty();
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const std::span<const Metric> reported =
      opt.trace ? std::span<const Metric>(kPerLayer)
                : std::span<const Metric>(kEndToEnd);
  for (std::size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i].name,
                json_number(metrics[reported[i].name]).c_str(),
                reported[i].unit);
  }
  std::printf("}}\n");
  std::filesystem::remove_all(opt.work_dir);
  return correct ? 0 : 1;
}
