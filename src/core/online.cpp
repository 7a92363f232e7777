#include "core/online.hpp"

#include <algorithm>

#include "util/counter.hpp"

namespace tacc::core {

std::vector<OnlineAnalyzer::Probe> OnlineAnalyzer::resolve(
    const std::vector<collect::Schema>& schemas) {
  std::vector<Probe> probes;
  for (const auto& rule : pipeline::flag_rules()) {
    const auto& scope = rule.online;
    const auto schema = std::find_if(
        schemas.begin(), schemas.end(), [&scope](const auto& s) {
          return scope.alert != nullptr && s.type() == scope.type;
        });
    if (schema == schemas.end()) continue;
    Probe probe{&rule, {}};
    for (const char* key : scope.keys) {
      const auto idx = key ? schema->index_of(key) : std::nullopt;
      if (!idx) continue;
      const auto& entry = schema->entry(*idx);
      probe.keys.push_back({*idx, entry.width_bits, entry.scale});
    }
    // A rule runs only where its host carries every key it names.
    if (probe.keys.size() == (scope.keys[1] ? 2u : 1u)) {
      probes.push_back(std::move(probe));
    }
  }
  return probes;
}

double OnlineAnalyzer::measure(const Probe& probe, const collect::Record& prev,
                               const collect::Record& curr, double dt) {
  const auto& scope = probe.rule->online;
  double sum[2] = {0.0, 0.0};
  for (const auto& block : curr.blocks) {
    if (block.type != scope.type) continue;
    const auto before = std::find_if(
        prev.blocks.begin(), prev.blocks.end(), [&block](const auto& b) {
          return b.type == block.type && b.device == block.device;
        });
    for (std::size_t k = 0; k < probe.keys.size(); ++k) {
      const Key& key = probe.keys[k];
      if (key.index >= block.values.size()) continue;
      std::uint64_t v = block.values[key.index];  // a gauge reads as is
      if (!scope.gauge_ratio) {
        if (before == prev.blocks.end() ||
            key.index >= before->values.size()) {
          continue;
        }
        // A reset interval contributes no increase.
        v = util::counter_delta(before->values[key.index], v, key.width_bits)
                .value_or(0);
      }
      sum[k] += static_cast<double>(v) * key.scale;
    }
  }
  if (!scope.gauge_ratio) return (sum[0] + sum[1]) / dt * scope.scale;
  return sum[1] > 0.0 ? sum[0] / sum[1] * scope.scale : 0.0;
}

void OnlineAnalyzer::on_chunk(const std::string& hostname,
                              const collect::HostLog& chunk) {
  util::MutexLock lock(mu_);
  auto& state = hosts_[hostname];
  if (state.probes.empty()) state.probes = resolve(chunk.schemas);
  for (const auto& record : chunk.records) {
    ++records_;
    if (!state.last.blocks.empty() && record.time > state.last.time) {
      const double dt = util::to_seconds(record.time - state.last.time);
      for (const auto& probe : state.probes) {
        const double value = measure(probe, state.last, record, dt);
        if (!probe.rule->fails(value, thresholds_)) continue;
        alerts_.push_back({record.time, hostname, record.jobids,
                           probe.rule->online.alert, value});
        if (probe.rule->online.suspend) {
          suspend_.insert(record.jobids.begin(), record.jobids.end());
        }
      }
    }
    state.last = record;
  }
}

std::vector<Alert> OnlineAnalyzer::alerts() const {
  util::MutexLock lock(mu_);
  return alerts_;
}

std::set<long> OnlineAnalyzer::suspend_candidates() const {
  util::MutexLock lock(mu_);
  return suspend_;
}

std::size_t OnlineAnalyzer::records_analyzed() const {
  util::MutexLock lock(mu_);
  return records_;
}

}  // namespace tacc::core
