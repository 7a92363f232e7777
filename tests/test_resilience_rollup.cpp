// ResilienceStats roll-up correctness: merge() must cover every field (a
// silently-dropped counter is exactly the bug this file exists to catch),
// and the monitor's per-tier rollup must sum — field by field, without
// going through merge() itself — to the cluster-wide resilience view.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.hpp"
#include "util/fault.hpp"

namespace tacc {
namespace {

constexpr util::SimTime kStart = 1451865600LL * util::kSecond;  // 2016-01-04

// If this fires, a field was added to (or removed from) ResilienceStats:
// update merge(), the field list below, and tier_stats() documentation.
static_assert(sizeof(util::ResilienceStats) == 13 * sizeof(std::uint64_t),
              "ResilienceStats changed: update merge() and this test");

util::ResilienceStats distinct_stats(std::uint64_t base) {
  util::ResilienceStats s;
  s.injected_drops = base + 1;
  s.injected_duplicates = base + 2;
  s.injected_delays = base + 3;
  s.injected_errors = base + 4;
  s.retries = base + 5;
  s.spooled = base + 6;
  s.replayed = base + 7;
  s.spool_dropped = base + 8;
  s.dead_lettered = base + 9;
  s.requeued = base + 10;
  s.deduped = base + 11;
  s.paused_windows = base + 12;
  s.resumed_windows = base + 13;
  return s;
}

/// Field-by-field sum, deliberately NOT via merge(): the independent
/// accumulator the merge implementation is checked against.
util::ResilienceStats hand_sum(const std::vector<util::ResilienceStats>& v) {
  util::ResilienceStats t;
  for (const auto& s : v) {
    t.injected_drops += s.injected_drops;
    t.injected_duplicates += s.injected_duplicates;
    t.injected_delays += s.injected_delays;
    t.injected_errors += s.injected_errors;
    t.retries += s.retries;
    t.spooled += s.spooled;
    t.replayed += s.replayed;
    t.spool_dropped += s.spool_dropped;
    t.dead_lettered += s.dead_lettered;
    t.requeued += s.requeued;
    t.deduped += s.deduped;
    t.paused_windows += s.paused_windows;
    t.resumed_windows += s.resumed_windows;
  }
  return t;
}

TEST(ResilienceRollup, MergeCoversEveryField) {
  const auto a = distinct_stats(100);
  const auto b = distinct_stats(2000);
  util::ResilienceStats merged = a;
  merged.merge(b);
  const auto expected = hand_sum({a, b});
  EXPECT_EQ(merged.injected_drops, expected.injected_drops);
  EXPECT_EQ(merged.injected_duplicates, expected.injected_duplicates);
  EXPECT_EQ(merged.injected_delays, expected.injected_delays);
  EXPECT_EQ(merged.injected_errors, expected.injected_errors);
  EXPECT_EQ(merged.retries, expected.retries);
  EXPECT_EQ(merged.spooled, expected.spooled);
  EXPECT_EQ(merged.replayed, expected.replayed);
  EXPECT_EQ(merged.spool_dropped, expected.spool_dropped);
  EXPECT_EQ(merged.dead_lettered, expected.dead_lettered);
  EXPECT_EQ(merged.requeued, expected.requeued);
  EXPECT_EQ(merged.deduped, expected.deduped);
  EXPECT_EQ(merged.paused_windows, expected.paused_windows);
  EXPECT_EQ(merged.resumed_windows, expected.resumed_windows);
  EXPECT_EQ(merged, expected);  // and operator== agrees with all of the above
}

TEST(ResilienceRollup, TierStatsSumToClusterResilience) {
  // A busy tree run: broker faults, aggregator faults, consumer crashes,
  // watermark pauses — every counter family gets a chance to be nonzero.
  auto plan = std::make_shared<util::FaultPlan>(424242);
  util::FaultSpec publish;
  publish.drop_rate = 0.05;
  publish.duplicate_rate = 0.05;
  publish.delay_rate = 0.1;
  publish.delay_min = util::kSecond;
  publish.delay_max = 10 * util::kSecond;
  plan->set(std::string(util::kFaultBrokerPublish), publish);
  util::FaultSpec daemon;
  daemon.error_rate = 0.05;
  plan->set(std::string(util::kFaultDaemonPublish), daemon);
  util::FaultSpec agg_publish;
  agg_publish.error_rate = 0.2;
  plan->set(std::string(util::kFaultAggregatorPublish), agg_publish);
  util::FaultSpec agg_crash;
  agg_crash.error_rate = 0.2;
  plan->set(std::string(util::kFaultAggregatorCrash), agg_crash);
  util::FaultSpec crash;
  crash.error_rate = 0.05;
  plan->set(std::string(util::kFaultConsumerCrash), crash);

  simhw::ClusterConfig cc;
  cc.num_nodes = 4;
  cc.topology = simhw::Topology{2, 4, false};
  cc.phi_fraction = 0.0;
  simhw::Cluster cluster(cc);

  core::MonitorConfig mc;
  mc.mode = core::TransportMode::Daemon;
  mc.start = kStart;
  mc.online_analysis = false;
  mc.fault_plan = plan;
  mc.consumer_options.dedup_window = 0;
  mc.topology.leaf_brokers = 4;
  mc.topology.fanout = 2;
  mc.topology.batch_records = 4;
  core::ClusterMonitor monitor(cluster, mc);
  monitor.advance_to(kStart + util::kHour);
  monitor.crash_consumer();
  monitor.advance_to(kStart + 2 * util::kHour);
  monitor.restart_consumer();
  monitor.advance_to(kStart + 3 * util::kHour);
  monitor.drain();

  const auto rows = monitor.tier_stats();
  ASSERT_EQ(rows.size(), monitor.topology().tier_count());
  std::vector<util::ResilienceStats> per_tier;
  for (const auto& row : rows) per_tier.push_back(row.resilience);
  const auto summed = hand_sum(per_tier);
  const auto total = monitor.resilience_stats();

  // The contract documented on ClusterMonitor::tier_stats(): summing the
  // rows reproduces resilience_stats() exactly. Field-by-field so a
  // counter dropped from either path names itself in the failure.
  EXPECT_EQ(summed.injected_drops, total.injected_drops);
  EXPECT_EQ(summed.injected_duplicates, total.injected_duplicates);
  EXPECT_EQ(summed.injected_delays, total.injected_delays);
  EXPECT_EQ(summed.injected_errors, total.injected_errors);
  EXPECT_EQ(summed.retries, total.retries);
  EXPECT_EQ(summed.spooled, total.spooled);
  EXPECT_EQ(summed.replayed, total.replayed);
  EXPECT_EQ(summed.spool_dropped, total.spool_dropped);
  EXPECT_EQ(summed.dead_lettered, total.dead_lettered);
  EXPECT_EQ(summed.requeued, total.requeued);
  EXPECT_EQ(summed.deduped, total.deduped);
  EXPECT_EQ(summed.paused_windows, total.paused_windows);
  EXPECT_EQ(summed.resumed_windows, total.resumed_windows);
  EXPECT_EQ(summed, total);

  // The run was not vacuous: the fault families all fired somewhere.
  EXPECT_GT(total.injected_drops, 0u);
  EXPECT_GT(total.injected_errors, 0u);
  EXPECT_GT(total.deduped + total.requeued, 0u);

  // The rendered table has one line per tier plus a header.
  const auto table = monitor.topology_stats();
  EXPECT_NE(table.find("tier"), std::string::npos);
  EXPECT_NE(table.find("paused"), std::string::npos);
  EXPECT_NE(table.find("crashes"), std::string::npos);
}

}  // namespace
}  // namespace tacc
