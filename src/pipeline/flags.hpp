// Flag rules (paper section V-A): every job's metrics are tested against
// thresholds chosen with system administrators and consultants; flagged
// jobs appear in a sublist of every portal search and in the daily report.
//
// The rules are data: one table, flag_rules(), read by evaluate_flags, the
// portal's threshold report, and core::OnlineAnalyzer, which applies each
// rule's online scope to every interval as records arrive (section VI-B).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/metrics.hpp"
#include "workload/jobs.hpp"

namespace tacc::pipeline {

struct Flag {
  std::string name;    // rule key, e.g. "high_metadata_rate"
  std::string detail;  // human-readable explanation with the offending value
};

/// One threshold per rule, shared by the batch and online checks.
struct FlagThresholds {
  double metadata_rate = 10000.0;   // reqs/s: node-summed peak; online per node
  double gige_mb_s = 1.0;           // Ethernet MPI suspicion
  double largemem_min_gb = 64.0;    // minimum justified use of a 1 TB node
  double idle_ratio = 0.15;         // min/max node CPU_Usage
  double catastrophe_ratio = 0.25;  // min/max interval CPU usage
  double ramp_ratio = 0.30;         // first/peak interval CPU usage
  double tail_ratio = 0.30;         // last/peak interval CPU usage
  double high_cpi = 3.0;            // cycles per instruction
  double low_vec = 0.01;            // VecPercent considered unvectorized
  double mem_fraction = 0.95;       // MemUsed/MemTotal of a node (online)
};

/// When a batch rule applies, beyond its metric being present.
enum class Guard {
  None,
  Largemem,  // only jobs in the 1 TB largemem queue
  TailHeld,  // only when TailDrop >= tail_ratio: a slow start, not a crash
  FpActive,  // only when flops > 0.1 GFLOP/s: there is FP work to vectorize
};

/// A rule's online scope (section VI-B): the value of one node over one
/// interval — the rate of (type, keys) summed over keys and devices, or
/// for a gauge ratio keys[0] / keys[1] of the current readings — times
/// `scale`, in the unit of the rule's threshold.
struct OnlineScope {
  const char* alert = nullptr;  // alert name; nullptr = batch only
  const char* type = nullptr;
  const char* keys[2] = {nullptr, nullptr};
  double scale = 1.0;
  bool gauge_ratio = false;
  bool suspend = false;  // alerted jobs are recommended for suspension
};

struct FlagRule {
  const char* name;    // flag key
  const char* title;   // threshold-report row
  double JobMetrics::*metric;  // Table I metric; nullptr = online only
  double FlagThresholds::*threshold;
  bool above;  // fails when value > threshold, else when value < threshold
  Guard guard;
  const char* detail;  // printf format of the metric times detail_scale
  double detail_scale = 1.0;
  OnlineScope online = {};

  bool fails(double value, const FlagThresholds& t) const {
    return above ? value > t.*threshold : value < t.*threshold;
  }
};

/// The rule table, in flag order.
std::span<const FlagRule> flag_rules();

enum class Verdict { NotApplicable, Pass, Fail };

/// Judges a rule on a job's Table I metrics and queue: NotApplicable when
/// the rule is online only, its metric is NaN, or its guard does not hold.
Verdict judge(const FlagRule& rule, const JobMetrics& metrics,
              std::string_view queue, const FlagThresholds& thresholds);

/// Evaluates every rule; returns the flags that fired (possibly empty).
std::vector<Flag> evaluate_flags(const workload::AccountingRecord& acct,
                                 const JobMetrics& metrics,
                                 const FlagThresholds& thresholds = {});

/// Joins flag names with commas (the DB column form).
std::string flag_names(const std::vector<Flag>& flags);

}  // namespace tacc::pipeline
