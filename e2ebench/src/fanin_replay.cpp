// fanin_replay: the backlog drain after a root outage. 1024 nodes at the
// paper's 10-minute cadence publish through a 2-tier aggregation tree (4
// leaf brokers, fan-out 4, so one aggregator thread). An outage on the
// daemon.publish site makes every daemon spool its records; that spooling
// is the set-up. The timed phase starts when the outage has ended and runs
// until the last record is archived: the spools replay through the tree
// while aggregator.crash fires at 2%, the rate of the transport soak.
//
// The nodes are idle: with jobs on them, simulating the outage cost 3x the
// set-up time and 30% more memory, and record size moved with the job mix.
// --seed picks the hour of the day the outage starts, so timestamps and
// counter values differ per seed while every host publishes records of one
// shape into the same 1-hour coalescing windows. The fault schedule is
// fixed: crash decisions hash the aggregator's frame sequence, and with a
// seeded schedule the requeue volume moved 2.4x between seeds (217k-523k
// per replay), far more than any bound on the replay rate could absorb.
//
// One round is one outage and its replay. Operations: every published
// record, failed unless archived exactly once.
#include "checks.hpp"
#include "core/monitor.hpp"
#include "day.hpp"
#include "util/fault.hpp"

namespace e2e {

using namespace tacc;

namespace {

constexpr std::size_t kNodes = 1024;
constexpr util::SimTime kInterval = 10 * util::kMinute;
constexpr util::SimTime kOutage = 6 * util::kHour;
constexpr double kCrashRate = 0.02;
constexpr std::uint64_t kFaultSeed = 20160104;

}  // namespace

void run_fanin_replay(const Options& opt, Tracer& tracer, Outcome& out) {
  Timers timers;
  int max_threads = 0;
  double spooled = 0, root_messages = 0, requeued = 0,
         deduped = 0, records = 0;

  const util::SimTime start =
      kDayStart + static_cast<util::SimTime>(opt.seed % 24) * util::kHour;
  RoundPlan plan(opt, tracer, out);
  while (plan.next()) {
    simhw::ClusterConfig cc;
    cc.num_nodes = kNodes;
    cc.topology = simhw::Topology{2, 4, false};
    cc.phi_fraction = 0.0;
    simhw::Cluster cluster(cc);
    auto faults = std::make_shared<util::FaultPlan>(kFaultSeed);
    util::FaultSpec outage;
    // The outage covers every collection up to kOutage and ends one
    // second later, before the next one is due.
    outage.outages.push_back({start, start + kOutage + util::kSecond});
    faults->set(std::string(util::kFaultDaemonPublish), outage);
    util::FaultSpec crash;
    crash.error_rate = kCrashRate;
    faults->set(std::string(util::kFaultAggregatorCrash), crash);

    core::MonitorConfig mc;
    mc.mode = core::TransportMode::Daemon;
    mc.start = start;
    mc.interval = kInterval;
    mc.online_analysis = false;
    mc.fault_plan = faults;
    mc.consumer_options.dedup_window = 0;
    mc.topology.leaf_brokers = 4;
    mc.topology.fanout = 4;
    core::ClusterMonitor monitor(cluster, mc);
    monitor.advance_to(start + kOutage + util::kSecond);
    max_threads = std::max(max_threads, thread_count());
    const auto before = monitor.resilience_stats();
    const auto root_before = monitor.broker().stats().published;

    plan.start();
    {
      Timed stage(tracer, timers, "stage.replay");
      Timed call(tracer, timers, "transport.replay");
      monitor.drain();
    }
    const std::uint64_t published = monitor.published_unique();
    plan.stop(published);

    // ---- checks (outside the timed phase) ----
    std::vector<std::string> why;
    const auto bad = records_not_exactly_once(
        snapshot_archive(monitor.archive()), published, why);
    for (const auto& w : why) out.fail("archive: " + w);
    if (monitor.spool_depth() != 0) {
      out.fail(std::to_string(monitor.spool_depth()) +
               " records still spooled after the replay");
    }
    if (before.spooled != published) {
      out.fail("set-up spooled " + std::to_string(before.spooled) + " of " +
               std::to_string(published) + " records");
    }
    out.attempted += published;
    out.failed += bad;
    const auto after = monitor.resilience_stats();
    records += static_cast<double>(published);
    spooled += static_cast<double>(before.spooled);
    root_messages +=
        static_cast<double>(monitor.broker().stats().published - root_before);
    requeued += static_cast<double>(after.requeued - before.requeued);
    deduped += static_cast<double>(after.deduped - before.deduped);
  }

  const double n = plan.rounds();
  auto& L = out.layer;
  L["replay_records_per_s"] = records / timers["transport.replay"];
  L["transport.spooled"] = spooled / n;
  L["transport.root_messages"] = root_messages / n;
  L["transport.records_per_root_message"] = records / root_messages;
  L["transport.requeued"] = requeued / n;
  L["transport.requeue_amplification"] = requeued / records;
  L["transport.deduped"] = deduped / n;
  L["threads.max"] = max_threads;
}

}  // namespace e2e
