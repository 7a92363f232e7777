#include "day.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "util/rng.hpp"
#include "workload/apps.hpp"

namespace e2e {

using namespace tacc;

std::vector<workload::JobSpec> job_mix(const DayShape& shape,
                                       std::uint64_t seed) {
  // Profiles that run on the Phi-less Haswell nodes of this cluster.
  static const char* const kProfiles[] = {
      "wrf",         "md_engine",        "cfd_scalar", "qchem",
      "genomics_io", "python_analytics", "fem_avx",    "spectral",
      "mc_scalar",   "mpi_gige",         "compile_run", "idle_half"};
  util::Rng rng(seed);
  // Sizes and run times cycle through fixed lists, so every seed asks for
  // about the same node-hours (and the day's data volume stays put); the
  // seed shuffles which job gets which, and draws profiles, users and
  // submit times. Submissions in the first two thirds of the day and run
  // times of at most a sixth of it keep most jobs inside the day.
  const int sizes[] = {1, 1, 2, 2, 4};
  const util::SimTime max_run = std::max<util::SimTime>(
      shape.length / 6 - shape.length / 6 % util::kMinute, 2 * shape.interval);
  std::vector<std::pair<int, util::SimTime>> shapes;
  for (int i = 0; i < shape.jobs; ++i) {
    const auto run = 2 * shape.interval +
                     (max_run - 2 * shape.interval) * (i % 7) / 6;
    shapes.emplace_back(std::min(shape.nodes, sizes[i % 5]),
                        run - run % util::kMinute);
  }
  for (std::size_t i = shapes.size(); i > 1; --i) {
    std::swap(shapes[i - 1],
              shapes[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  const auto submit_span = shape.length * 2 / 3;
  std::vector<workload::JobSpec> jobs;
  for (int i = 0; i < shape.jobs; ++i) {
    workload::JobSpec job;
    job.jobid = 9000000 + i;
    job.user = "dayuser" + std::to_string(rng.uniform_int(0, 7));
    job.account = "TG-DAY" + std::to_string(rng.uniform_int(0, 2));
    job.profile = kProfiles[rng.uniform_int(0, std::size(kProfiles) - 1)];
    job.exe = workload::find_profile(job.profile).exe;
    job.jobname = job.profile + "_" + std::to_string(i);
    job.nodes = shapes[static_cast<std::size_t>(i)].first;
    job.wayness = 8;
    const auto submit = rng.uniform_int(0, submit_span - 1);
    job.submit_time = kDayStart + submit - submit % util::kMinute;
    job.start_time = job.submit_time;
    job.end_time = job.start_time + shapes[static_cast<std::size_t>(i)].second;
    jobs.push_back(std::move(job));
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const auto& a, const auto& b) {
                     return a.submit_time < b.submit_time;
                   });
  return jobs;
}

Day::Day(const DayShape& shape, std::uint64_t seed) : shape_(shape) {
  simhw::ClusterConfig cc;
  cc.num_nodes = shape.nodes;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  cluster_ = std::make_unique<simhw::Cluster>(cc);
  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = kDayStart;
  mc.interval = shape.interval;
  mc.online_analysis = true;
  // Full dedup memory, so exactly-once is checked over the whole day.
  mc.consumer_options.dedup_window = 0;
  monitor_ = std::make_unique<core::ClusterMonitor>(*cluster_, mc);
  scheduler_ = std::make_unique<core::LiveScheduler>(*monitor_, cluster_->size());
  for (auto& job : job_mix(shape, seed)) scheduler_->submit(std::move(job));
}

void Day::run(Tracer& tracer, Timers& timers) {
  std::uint64_t step = 0;
  for (util::SimTime t = kDayStart + shape_.step;
       t <= kDayStart + shape_.length; t += shape_.step) {
    Timed span(tracer, timers, "core.advance", ++step);
    scheduler_->run_until(t);
  }
  Timed span(tracer, timers, "transport.drain");
  monitor_->drain();
}

std::vector<workload::AccountingRecord> Day::accounting() const {
  std::set<long> done;
  for (const auto& job : scheduler_->completed()) done.insert(job.jobid);
  std::map<long, std::vector<std::string>> hosts;
  const auto& archive = monitor_->archive();
  for (const auto& host : archive.hosts()) {
    archive.visit_log(host, [&](const collect::HostLog& log) {
      for (const auto& rec : log.records) {
        for (const long id : rec.jobids) {
          if (!done.count(id)) continue;
          auto& list = hosts[id];
          if (list.empty() || list.back() != host) list.push_back(host);
        }
      }
    });
  }
  std::vector<workload::AccountingRecord> out;
  for (const auto& job : scheduler_->completed()) {
    out.push_back(workload::to_accounting(job, hosts[job.jobid]));
  }
  return out;
}

}  // namespace e2e
