// Online (soft real-time) analysis of the daemon-mode stream (paper
// sections I-C and VI-B): as raw chunks arrive at the consumer, per-host
// interval rates are computed immediately and compared against thresholds;
// problem jobs are reported to the administrator — and recommended for
// suspension — before they can slow down or crash the shared filesystem.
//
// The rules are the batch flag rules (pipeline::flag_rules()) with an
// online scope, judged against the default pipeline::FlagThresholds; counter
// increases come from util::counter_delta, per device, then summed.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "collect/rawfile.hpp"
#include "pipeline/flags.hpp"
#include "util/clock.hpp"
#include "util/thread_annotations.hpp"

namespace tacc::core {

struct Alert {
  util::SimTime time = 0;
  std::string hostname;
  std::vector<long> jobids;
  std::string rule;    // "metadata_storm", "gige_traffic", "memory_pressure"
  double value = 0.0;  // the offending value, in the threshold's unit
};

class OnlineAnalyzer {
 public:
  /// Consumer callback: analyze a freshly arrived self-describing chunk.
  /// Thread-safe (the consumer calls from its own thread).
  void on_chunk(const std::string& hostname, const collect::HostLog& chunk)
      TACC_EXCLUDES(mu_);

  std::vector<Alert> alerts() const TACC_EXCLUDES(mu_);
  /// Jobs recommended for suspension (any job that triggered an alert of a
  /// suspending rule: the metadata storm).
  std::set<long> suspend_candidates() const TACC_EXCLUDES(mu_);
  std::size_t records_analyzed() const TACC_EXCLUDES(mu_);

 private:
  /// A rule's online scope resolved once against a host's schemas: the
  /// value index, width and scale of each of its keys.
  struct Key {
    std::size_t index;
    int width_bits;
    double scale;
  };
  struct Probe {
    const pipeline::FlagRule* rule;
    std::vector<Key> keys;
  };
  struct HostState {
    collect::Record last;
    std::vector<Probe> probes;
  };
  /// The probes of every online rule whose type and keys the host carries.
  static std::vector<Probe> resolve(
      const std::vector<collect::Schema>& schemas);
  /// The probe's value over the interval prev -> curr of `dt` seconds.
  static double measure(const Probe& probe, const collect::Record& prev,
                        const collect::Record& curr, double dt);

  const pipeline::FlagThresholds thresholds_{};
  mutable util::Mutex mu_;
  std::map<std::string, HostState> hosts_ TACC_GUARDED_BY(mu_);
  std::vector<Alert> alerts_ TACC_GUARDED_BY(mu_);
  std::set<long> suspend_ TACC_GUARDED_BY(mu_);
  std::size_t records_ TACC_GUARDED_BY(mu_) = 0;
};

}  // namespace tacc::core
