#include "pipeline/flags.hpp"

#include <cmath>
#include <cstdio>

namespace tacc::pipeline {
namespace {

using M = JobMetrics;
using T = FlagThresholds;

constexpr FlagRule kRules[] = {
    {"high_metadata_rate", "metadata rate", &M::MetaDataRate,
     &T::metadata_rate, true, Guard::None,
     "peak MDS request rate %.0f reqs/s stresses the filesystem", 1.0,
     {"metadata_storm", "mdc", {"reqs"}, 1.0, false, true}},
    {"high_gige", "GigE bandwidth", &M::GigEBW, &T::gige_mb_s, true,
     Guard::None,
     "%.1f MB/s over Ethernet suggests a user MPI build not using InfiniBand",
     1.0, {"gige_traffic", "net", {"rx_bytes", "tx_bytes"}, 1.0e-6}},
    {"largemem_underuse", "largemem footprint", &M::MemUsage,
     &T::largemem_min_gb, false, Guard::Largemem,
     "job in the 1 TB largemem queue used only %.1f GB"},
    {"idle_nodes", "node balance (idle)", &M::idle, &T::idle_ratio, false,
     Guard::None,
     "node CPU usage imbalance (min/max = %.2f): some reserved nodes are "
     "idle"},
    {"cpu_time_variation", "time balance (catastrophe)", &M::catastrophe,
     &T::catastrophe_ratio, false, Guard::None,
     "CPU usage varied strongly over time (min/max = %.2f)"},
    {"cpu_ramp_up", "ramp-up (first/peak)", &M::RampUp, &T::ramp_ratio,
     false, Guard::TailHeld,
     "slow start (first window %.2f of peak): likely a compile step before "
     "the run"},
    {"cpu_tail_drop", "tail drop (last/peak)", &M::TailDrop, &T::tail_ratio,
     false, Guard::None,
     "CPU usage collapsed before the job ended (last window %.2f of peak): "
     "likely an application failure"},
    {"high_cpi", "cycles per instruction", &M::cpi, &T::high_cpi, true,
     Guard::None,
     "%.1f cycles per instruction: memory layout or I/O pattern may not be "
     "performant"},
    {"low_vectorization", "vectorization", &M::VecPercent, &T::low_vec, false,
     Guard::FpActive, "only %.2f%% of FP work vectorized", 100.0},
    {"memory_pressure", "memory pressure", nullptr, &T::mem_fraction, true,
     Guard::None, nullptr, 1.0,
     {"memory_pressure", "mem", {"MemUsed", "MemTotal"}, 1.0, true}},
};

}  // namespace

std::span<const FlagRule> flag_rules() { return kRules; }

Verdict judge(const FlagRule& rule, const JobMetrics& m,
              std::string_view queue, const FlagThresholds& t) {
  const double value = rule.metric ? m.*rule.metric : std::nan("");
  const bool applies =
      !std::isnan(value) &&
      (rule.guard != Guard::Largemem || queue == "largemem") &&
      (rule.guard != Guard::TailHeld || m.TailDrop >= t.tail_ratio) &&
      (rule.guard != Guard::FpActive || m.flops > 0.1);
  if (!applies) return Verdict::NotApplicable;
  return rule.fails(value, t) ? Verdict::Fail : Verdict::Pass;
}

std::vector<Flag> evaluate_flags(const workload::AccountingRecord& acct,
                                 const JobMetrics& m,
                                 const FlagThresholds& t) {
  std::vector<Flag> flags;
  for (const auto& rule : kRules) {
    if (judge(rule, m, acct.queue, t) != Verdict::Fail) continue;
    char detail[160];
    std::snprintf(detail, sizeof detail, rule.detail,
                  m.*rule.metric * rule.detail_scale);
    flags.push_back({rule.name, detail});
  }
  return flags;
}

std::string flag_names(const std::vector<Flag>& flags) {
  std::string out;
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (i) out += ',';
    out += flags[i].name;
  }
  return out;
}

}  // namespace tacc::pipeline
