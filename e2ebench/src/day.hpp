// The monitored day behind daemon_day and portal_live: the paper's Fig. 2
// daemon mode on 16 nodes for 24 h at 1-minute cadence, a flat broker, the
// online analyzer on, and a seeded job mix run through core::LiveScheduler.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/monitor.hpp"
#include "core/scheduler.hpp"
#include "harness.hpp"
#include "simhw/cluster.hpp"
#include "workload/jobs.hpp"

namespace e2e {

/// 2016-01-04 00:00 UTC, the simulated day's midnight.
inline constexpr tacc::util::SimTime kDayStart =
    1451865600LL * tacc::util::kSecond;

struct DayShape {
  int nodes = 16;
  tacc::util::SimTime length = 24 * tacc::util::kHour;
  tacc::util::SimTime interval = tacc::util::kMinute;
  int jobs = 46;
  /// The scheduler is advanced in steps of this length (one span each).
  tacc::util::SimTime step = tacc::util::kHour;
};

/// The seeded job mix: sizes and run times come from fixed lists in a
/// seeded order, profiles, users and submit times are drawn from `seed`;
/// job ids start at 9000000 so they never collide with the generated
/// population's.
std::vector<tacc::workload::JobSpec> job_mix(const DayShape& shape,
                                             std::uint64_t seed);

class Day {
 public:
  Day(const DayShape& shape, std::uint64_t seed);

  /// Collection + transport: steps the scheduler through the day, then
  /// drains every daemon and the broker into the archive. Times
  /// "core.advance" per step and "transport.drain".
  void run(Tracer& tracer, Timers& timers);

  /// Accounting rows of the jobs that completed inside the day, with the
  /// hosts each ran on (read from the archive's job lists).
  std::vector<tacc::workload::AccountingRecord> accounting() const;

  const DayShape& shape() const noexcept { return shape_; }
  tacc::core::ClusterMonitor& monitor() { return *monitor_; }
  const tacc::transport::RawArchive& archive() { return monitor_->archive(); }

 private:
  DayShape shape_;
  std::unique_ptr<tacc::simhw::Cluster> cluster_;
  std::unique_ptr<tacc::core::ClusterMonitor> monitor_;
  std::unique_ptr<tacc::core::LiveScheduler> scheduler_;
};

}  // namespace e2e
