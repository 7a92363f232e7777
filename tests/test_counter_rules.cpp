// One counter-delta rule and one flag-rule table, seen from every consumer:
// Table I metrics, the online analyzer and tsdb rate queries must read a
// counter reset and a narrow-counter wrap the same way, and the online
// alerts must agree with the batch flags as each rule's scope implies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "core/online.hpp"
#include "pipeline/flags.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/metrics.hpp"
#include "pipeline/minisim.hpp"
#include "transport/archive.hpp"
#include "tsdb/store.hpp"
#include "util/counter.hpp"
#include "workload/apps.hpp"

namespace tacc {
namespace {

constexpr util::SimTime kT0 = 1451606400LL * util::kSecond;
constexpr util::SimTime kStep = 600 * util::kSecond;
constexpr int kRecords = 10;
constexpr int kClearAt = 5;  // the record after the mdc stats clear
constexpr double kRaplScale = 1.0e6 / 65536.0;  // raw units -> uJ
constexpr std::uint64_t kReqsPerStep = 60000;   // 100 reqs/s
constexpr std::uint64_t kEnergyPerStep = 30000ULL * 65536;  // 50 W

/// Loads `logs` into a fresh store through the archive -> tsdb ingest.
void ingest(tsdb::Store& store, const std::vector<collect::HostLog>& logs) {
  transport::RawArchive archive;
  for (const auto& log : logs) {
    archive.add_header(log.hostname, log.arch, log.schemas);
    for (const auto& rec : log.records) {
      archive.append(log.hostname, rec, rec.time);
    }
  }
  pipeline::ingest_archive_tsdb(store, archive);
}

/// One host running job 7 at 100 MDS reqs/s and 50 W, whose 64-bit
/// mdc.reqs counter is cleared just before record kClearAt and whose
/// 32-bit RAPL package counter wraps every ~2.2 intervals.
collect::HostLog reset_and_wrap_log() {
  collect::HostLog log;
  log.hostname = "c401-101";
  log.arch = "hsw";
  log.schemas = {
      collect::Schema("mdc", {{"reqs", true, 64, "reqs", 1.0},
                              {"wait", true, 64, "usec", 1.0}}),
      collect::Schema("rapl", {{"energy_pkg", true, 32, "uJ", kRaplScale}}),
  };
  std::uint64_t reqs = 5000000000ULL;
  std::uint64_t energy = (1ULL << 32) - 1000000000ULL;
  for (int i = 0; i < kRecords; ++i) {
    collect::Record rec;
    rec.time = kT0 + i * kStep;
    rec.jobids = {7};
    rec.mark = i == 0 ? "begin" : i == kRecords - 1 ? "end" : "";
    rec.blocks = {{"mdc", "scratch", {reqs, reqs * 50}},
                  {"rapl", "0", {energy & 0xffffffffULL}}};
    log.records.push_back(std::move(rec));
    // The clear zeroes the counter; half an interval of requests follows.
    reqs = i + 1 == kClearAt ? kReqsPerStep / 2 : reqs + kReqsPerStep;
    energy += kEnergyPerStep;
  }
  return log;
}

workload::AccountingRecord accounting_for(const collect::HostLog& log) {
  workload::AccountingRecord acct;
  acct.jobid = 7;
  acct.queue = "normal";
  acct.nodes = 1;
  acct.start_time = log.records.front().time;
  acct.end_time = log.records.back().time;
  acct.hostnames = {log.hostname};
  return acct;
}

TEST(CounterDelta, ResetAndWidths) {
  // Below 64 bits a fall is a wrap; at 64 bits a fall is a reset.
  EXPECT_EQ(util::counter_delta(100, 40, 8), 196u);
  EXPECT_EQ(util::counter_delta(5000, 30, 64), std::nullopt);
  EXPECT_EQ(util::counter_delta(~0ULL - 9, 5, 64), 15u);
  EXPECT_EQ(util::counter_delta(0, 1ULL << 63, 64), std::nullopt);
  EXPECT_EQ(util::counter_delta(0, (1ULL << 63) - 1, 64), (1ULL << 63) - 1);
}

TEST(CounterDelta, ResetAndWrapReadTheSameOnEveryPath) {
  const auto log = reset_and_wrap_log();

  // Table I: the reset interval adds nothing, so the metadata metrics stay
  // within the job's real 100 reqs/s.
  const auto m = pipeline::compute_metrics(
      pipeline::extract_job({log}, accounting_for(log)));
  ASSERT_TRUE(std::isfinite(m.MDCReqs));
  EXPECT_GT(m.MDCReqs, 50.0);
  EXPECT_LE(m.MDCReqs, 100.0);
  EXPECT_DOUBLE_EQ(m.MetaDataRate, 100.0);
  EXPECT_NEAR(m.PkgWatts, 50.0, 1e-9);  // every wrap read as its increase

  // Online: the clear is not a metadata storm.
  core::OnlineAnalyzer online;
  online.on_chunk(log.hostname, log);
  EXPECT_TRUE(online.alerts().empty());
  EXPECT_TRUE(online.suspend_candidates().empty());

  // tsdb rate queries: 0 for the reset interval, the true increase across
  // every wrap.
  tsdb::Store store;
  ingest(store, {log});
  tsdb::Query q;
  q.rate = true;
  q.filters = {{"host", log.hostname}};
  q.metric = "taccstats.mdc.reqs";
  const auto reqs = store.query(q);
  ASSERT_EQ(reqs.size(), 1u);
  ASSERT_EQ(reqs[0].points.size(), kRecords - 1u);
  for (int i = 1; i < kRecords; ++i) {
    const auto& pt = reqs[0].points[static_cast<std::size_t>(i - 1)];
    EXPECT_EQ(pt.time, kT0 + i * kStep);
    EXPECT_DOUBLE_EQ(pt.value, i == kClearAt ? 0.0 : 100.0)
        << "interval " << i;
  }
  q.metric = "taccstats.rapl.energy_pkg";
  q.group_by = {"width"};
  const auto energy = store.query(q);
  ASSERT_EQ(energy.size(), 1u);
  EXPECT_EQ(energy[0].group_tags.at("width"), "32");
  ASSERT_EQ(energy[0].points.size(), kRecords - 1u);
  int wraps = 0;
  for (std::size_t i = 0; i < energy[0].points.size(); ++i) {
    wraps += log.records[i + 1].blocks[1].values[0] <
             log.records[i].blocks[1].values[0];
    EXPECT_DOUBLE_EQ(energy[0].points[i].value * 600.0,
                     static_cast<double>(kEnergyPerStep))
        << "interval " << i + 1;
  }
  EXPECT_GE(wraps, 3);
}

workload::JobSpec job_of(const workload::AppProfile& profile, long jobid) {
  workload::JobSpec job;
  job.jobid = jobid;
  job.user = "u" + std::to_string(jobid);
  job.profile = profile.name;
  job.exe = profile.exe;
  job.queue = profile.queue;
  job.nodes = 2;
  job.wayness = profile.procs_per_node;
  job.submit_time = util::make_time(2016, 1, 11, 8);
  job.start_time = job.submit_time + 5 * util::kMinute;
  job.end_time = job.start_time + 3 * util::kHour;
  return job;
}

std::vector<collect::HostLog> logs_of(const pipeline::JobData& data) {
  std::vector<collect::HostLog> logs;
  for (const auto& h : data.hosts) {
    auto& log = logs.emplace_back();
    log.hostname = h.hostname;
    log.arch = h.arch;
    log.schemas = h.schemas;
    log.records = h.records;
  }
  return logs;
}

TEST(CounterDelta, TsdbRaplRateIntegratesToTableOnePkgWatts) {
  pipeline::MiniSimOptions opts;
  opts.samples = 17;  // 10-minute intervals: at most one wrap per socket
  const auto data =
      pipeline::simulate_job(job_of(workload::find_profile("wrf"), 11), opts);
  const auto m = pipeline::compute_metrics(data);
  ASSERT_TRUE(std::isfinite(m.PkgWatts));

  tsdb::Store store;
  ingest(store, logs_of(data));
  double watts = 0.0;
  int wraps = 0;
  for (const auto& host : data.hosts) {
    tsdb::Query q;
    q.metric = "taccstats.rapl.energy_pkg";
    q.rate = true;
    q.filters = {{"host", host.hostname}};
    q.group_by = {"device"};
    double raw = 0.0;  // integrated raw counter units over the job
    for (const auto& group : store.query(q)) {
      util::SimTime prev = data.acct.start_time;
      for (const auto& pt : group.points) {
        raw += pt.value * util::to_seconds(pt.time - prev);
        prev = pt.time;
      }
    }
    const auto& schema = *std::find_if(
        host.schemas.begin(), host.schemas.end(),
        [](const collect::Schema& s) { return s.type() == "rapl"; });
    const double elapsed =
        util::to_seconds(data.acct.end_time - data.acct.start_time);
    watts += raw * schema.entry(*schema.index_of("energy_pkg")).scale /
             elapsed / 1e6;
    std::map<std::string, std::uint64_t> last;  // socket -> raw reading
    for (const auto& rec : host.records) {
      for (const auto& b : rec.blocks) {
        if (b.type != "rapl") continue;
        const auto it = last.find(b.device);
        wraps += it != last.end() && b.values[0] < it->second;
        last[b.device] = b.values[0];
      }
    }
  }
  watts /= static_cast<double>(data.hosts.size());
  EXPECT_GT(wraps, 0);  // the job must span a wrap for this to mean much
  EXPECT_NEAR(watts, m.PkgWatts, 1e-9 * m.PkgWatts);
}

/// Every app profile, one job each: online alerts and batch flags agree as
/// the rules' scopes imply (docs/ARCHITECTURE.md, "Counter deltas and flag
/// rules").
TEST(OnlineBatchDifferential, EveryProfileAgreesByScope) {
  std::vector<const workload::AppProfile*> profiles;
  for (const auto& entry : workload::app_catalog()) {
    profiles.push_back(&entry.profile);
  }
  profiles.push_back(&workload::wrf_mdstorm_profile());
  long jobid = 100;
  int storms = 0, gige = 0;
  for (const auto* profile : profiles) {
    SCOPED_TRACE(profile->name);
    const auto data = pipeline::simulate_job(job_of(*profile, ++jobid));
    const auto m = pipeline::compute_metrics(data);
    const auto flags = pipeline::evaluate_flags(data.acct, m);
    const auto flagged = [&flags](const char* name) {
      return std::any_of(flags.begin(), flags.end(),
                         [name](const auto& f) { return f.name == name; });
    };
    core::OnlineAnalyzer online;
    for (const auto& log : logs_of(data)) online.on_chunk(log.hostname, log);
    std::map<std::string, double> peak;  // rule -> largest alert value
    for (const auto& alert : online.alerts()) {
      EXPECT_EQ(alert.jobids, std::vector<long>{jobid});
      peak[alert.rule] = std::max(peak[alert.rule], alert.value);
    }
    // A per-node interval rate is at most the node-summed peak interval
    // rate: a storm alert implies the batch flag.
    if (peak.count("metadata_storm")) {
      ++storms;
      EXPECT_LE(peak["metadata_storm"], m.MetaDataRate * (1 + 1e-12));
      EXPECT_TRUE(flagged("high_metadata_rate"));
      EXPECT_EQ(online.suspend_candidates(), std::set<long>{jobid});
    }
    // A job average above the threshold needs some node interval above
    // it: the batch flag implies a GigE alert.
    if (flagged("high_gige")) {
      ++gige;
      EXPECT_TRUE(peak.count("gige_traffic"));
    }
  }
  EXPECT_GE(storms, 1);  // wrf_mdstorm
  EXPECT_GE(gige, 1);    // mpi_gige
}

}  // namespace
}  // namespace tacc
