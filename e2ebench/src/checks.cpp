#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>

namespace e2e {

using namespace tacc;

namespace {

/// Counter increase from `prev` to `curr` for a `width`-bit counter that
/// wrapped at most once in between.
std::uint64_t width_delta(std::uint64_t prev, std::uint64_t curr, int width) {
  if (curr >= prev) return curr - prev;
  const std::uint64_t mask =
      width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  return (mask - prev) + curr + 1;
}

bool near(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string device_of(const std::string& tags) {
  static const std::string kKey = "device=";
  const auto at = tags.find(kKey);
  if (at == std::string::npos) return {};
  const auto end = tags.find(',', at);
  return tags.substr(at + kKey.size(),
                     end == std::string::npos ? end : end - at - kKey.size());
}

/// The result group of one device, or nullptr.
const TsGroup* group_of(const std::vector<TsGroup>& got, const std::string& dev) {
  for (const auto& g : got) {
    if (device_of(g.tags) == dev) return &g;
  }
  return nullptr;
}

}  // namespace

std::vector<HostRecords> snapshot_archive(
    const transport::RawArchive& archive) {
  std::vector<HostRecords> out;
  for (const auto& host : archive.hosts()) {
    HostRecords h;
    h.host = host;
    archive.visit_log(host, [&](const collect::HostLog& log) {
      h.keys.reserve(log.records.size());
      for (const auto& rec : log.records) h.keys.emplace_back(rec.time, rec.mark);
    });
    // Sequence numbers are 1-based per producer; probe a margin past the
    // count so a gap still lists the numbers beyond it.
    const std::size_t seen = archive.seen_count(host);
    for (std::uint64_t s = 1; h.seqs.size() < seen && s <= seen + 4096; ++s) {
      if (archive.was_seen(host, s)) h.seqs.push_back(s);
    }
    out.push_back(std::move(h));
  }
  return out;
}

std::uint64_t records_not_exactly_once(const std::vector<HostRecords>& hosts,
                                       std::uint64_t published,
                                       std::vector<std::string>& why) {
  std::uint64_t bad = 0;
  std::uint64_t unique = 0;
  for (const auto& h : hosts) {
    // Missing: gaps in 1..max(seq).
    const std::uint64_t top = h.seqs.empty() ? 0 : h.seqs.back();
    const std::uint64_t gaps = top - h.seqs.size();
    // Extra copies: records beyond the unique sequence numbers, and
    // repeated (time, mark) keys.
    std::set<std::pair<SimTime, std::string>> distinct(h.keys.begin(),
                                                       h.keys.end());
    const std::uint64_t repeats = h.keys.size() - distinct.size();
    const std::uint64_t surplus =
        h.keys.size() > h.seqs.size() ? h.keys.size() - h.seqs.size() : 0;
    const std::uint64_t shortfall =
        h.seqs.size() > h.keys.size() ? h.seqs.size() - h.keys.size() : 0;
    const std::uint64_t host_bad =
        gaps + std::max(repeats, surplus) + shortfall;
    if (host_bad > 0) {
      why.push_back(h.host + ": " + std::to_string(h.keys.size()) +
                    " records, " + std::to_string(h.seqs.size()) +
                    " sequence numbers, " + std::to_string(gaps) + " gaps, " +
                    std::to_string(repeats) + " repeated records");
    }
    bad += host_bad;
    unique += h.seqs.size();
  }
  if (unique < published) {
    why.push_back(std::to_string(published - unique) +
                  " published records never archived");
    bad += published - unique;
  } else if (unique > published) {
    why.push_back(std::to_string(unique - published) +
                  " archived sequence numbers were never published");
    bad += unique - published;
  }
  return bad;
}

std::uint64_t count_raw_values(const transport::RawArchive& archive) {
  std::uint64_t n = 0;
  for (const auto& host : archive.hosts()) {
    archive.visit_log(host, [&](const collect::HostLog& log) {
      std::map<std::string, std::size_t> width;
      for (const auto& s : log.schemas) width[s.type()] = s.size();
      for (const auto& rec : log.records) {
        for (const auto& b : rec.blocks) {
          const auto it = width.find(b.type);
          if (it != width.end()) n += std::min(it->second, b.values.size());
        }
      }
    });
  }
  return n;
}

std::map<long, double> stored_metric(const db::Table& jobs,
                                     const std::string& column) {
  std::map<long, double> out;
  for (db::RowId r = 0; r < jobs.num_rows(); ++r) {
    const auto& v = jobs.at(r, column);
    if (v.is_null()) continue;
    out[static_cast<long>(jobs.at(r, "jobid").as_int())] = v.as_real();
  }
  return out;
}

std::map<long, double> recompute_mdc_reqs(
    const transport::RawArchive& archive,
    const std::vector<workload::AccountingRecord>& accounting) {
  // (jobid, host) -> time-sorted (time, per-device reqs) rows.
  struct Rows {
    std::vector<SimTime> times;
    std::vector<std::map<std::string, std::uint64_t>> reqs;
  };
  std::map<long, std::vector<double>> per_job;  // per-host rates
  std::set<long> wanted;
  for (const auto& a : accounting) wanted.insert(a.jobid);
  for (const auto& host : archive.hosts()) {
    archive.visit_log(host, [&](const collect::HostLog& log) {
      int idx = -1;
      double scale = 1.0;
      int width = 64;
      for (const auto& s : log.schemas) {
        if (s.type() != "mdc") continue;
        for (std::size_t i = 0; i < s.size(); ++i) {
          if (s.entry(i).key == "reqs") {
            idx = static_cast<int>(i);
            scale = s.entry(i).scale;
            width = s.entry(i).width_bits;
          }
        }
      }
      if (idx < 0) return;
      std::map<long, Rows> rows;
      for (const auto& rec : log.records) {
        for (const long id : rec.jobids) {
          if (!wanted.count(id)) continue;
          auto& r = rows[id];
          r.times.push_back(rec.time);
          auto& devs = r.reqs.emplace_back();
          for (const auto& b : rec.blocks) {
            if (b.type == "mdc" && b.values.size() > static_cast<std::size_t>(idx)) {
              devs[b.device] = b.values[static_cast<std::size_t>(idx)];
            }
          }
        }
      }
      for (auto& [id, r] : rows) {
        // Stable time order (records of one host arrive in time order).
        std::vector<std::size_t> order(r.times.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                           return r.times[a] < r.times[b];
                         });
        if (order.size() < 2) continue;
        const double elapsed = util::to_seconds(r.times[order.back()]) -
                               util::to_seconds(r.times[order.front()]);
        if (elapsed <= 0.0) continue;
        double total = 0.0;
        for (std::size_t k = 0; k + 1 < order.size(); ++k) {
          const auto& a = r.reqs[order[k]];
          const auto& b = r.reqs[order[k + 1]];
          for (const auto& [dev, v] : a) {
            const auto it = b.find(dev);
            if (it == b.end()) continue;
            total += static_cast<double>(width_delta(v, it->second, width)) *
                     scale;
          }
        }
        per_job[id].push_back(total / elapsed);
      }
    });
  }
  std::map<long, double> out;
  for (const auto& [id, rates] : per_job) {
    double sum = 0.0;
    for (const double r : rates) sum += r;
    out[id] = sum / static_cast<double>(rates.size());
  }
  return out;
}

void check_table1(const std::map<long, double>& stored,
                  const std::map<long, double>& expected,
                  std::vector<std::string>& errors) {
  for (const auto& [id, want] : expected) {
    const auto it = stored.find(id);
    if (it == stored.end()) {
      errors.push_back("Table I: job " + std::to_string(id) +
                       " has no stored MDCReqs");
    } else if (!near(it->second, want)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "Table I: job %ld MDCReqs stored %.17g, recomputed %.17g",
                    id, it->second, want);
      errors.push_back(buf);
    }
  }
  if (expected.empty()) errors.push_back("Table I: no job to check");
}

DeviceSeries raw_series(const collect::HostLog& log, const std::string& type,
                        const std::string& event, int* width) {
  DeviceSeries out;
  const collect::Schema* schema = nullptr;
  for (const auto& s : log.schemas) {
    if (s.type() == type) schema = &s;
  }
  if (schema == nullptr) return out;
  const auto idx = schema->index_of(event);
  if (!idx) return out;
  if (width != nullptr) *width = schema->entry(*idx).width_bits;
  for (const auto& rec : log.records) {
    for (const auto& b : rec.blocks) {
      if (b.type == type && b.values.size() > *idx) {
        out[b.device].push_back({rec.time, b.values[*idx]});
      }
    }
  }
  for (auto& [dev, pts] : out) {
    std::stable_sort(pts.begin(), pts.end(),
                     [](const RawPoint& a, const RawPoint& b) {
                       return a.t < b.t;
                     });
  }
  return out;
}

DeviceSeries truncate(const DeviceSeries& series, SimTime cutoff) {
  DeviceSeries out;
  for (const auto& [dev, pts] : series) {
    auto& dst = out[dev];
    for (const auto& p : pts) {
      if (p.t < cutoff) dst.push_back(p);
    }
  }
  return out;
}

bool parse_timeseries(const std::string& payload, std::vector<TsGroup>& out) {
  out.clear();
  std::istringstream is(payload);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("series{", 0) == 0) {
      const auto close = line.find('}');
      if (close == std::string::npos) return false;
      TsGroup g;
      g.tags = line.substr(7, close - 7);
      out.push_back(std::move(g));
    } else if (line.rfind("  ", 0) == 0 && !out.empty()) {
      char* end = nullptr;
      const long long t = std::strtoll(line.c_str() + 2, &end, 10);
      if (end == nullptr || *end != ' ') return false;
      const double v = std::strtod(end + 1, nullptr);
      out.back().points.emplace_back(t, v);
    } else if (!line.empty()) {
      return false;
    }
  }
  return true;
}

std::string check_buckets(const std::vector<TsGroup>& got,
                          const DeviceSeries& raw, SimTime start, SimTime end,
                          SimTime ds) {
  std::size_t expected_groups = 0;
  for (const auto& [dev, pts] : raw) {
    // Expected Avg buckets, folded in time order like a decode would.
    std::vector<std::pair<SimTime, double>> want;
    double sum = 0.0;
    std::size_t n = 0;
    SimTime cur = 0;
    for (const auto& p : pts) {
      if (p.t < start || p.t >= end) continue;
      const SimTime b = p.t - p.t % ds;
      if (n > 0 && b != cur) {
        want.emplace_back(cur, sum / static_cast<double>(n));
        sum = 0.0;
        n = 0;
      }
      cur = b;
      sum += static_cast<double>(p.v);
      ++n;
    }
    if (n > 0) want.emplace_back(cur, sum / static_cast<double>(n));
    if (want.empty()) continue;
    ++expected_groups;
    const TsGroup* g = group_of(got, dev);
    if (g == nullptr) return "device " + dev + ": group missing";
    if (g->points.size() != want.size()) {
      return "device " + dev + ": " + std::to_string(g->points.size()) +
             " buckets, expected " + std::to_string(want.size());
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (g->points[i].first != want[i].first ||
          !near(g->points[i].second, want[i].second)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "device %s bucket %zu: got (%lld, %.17g), expected "
                      "(%lld, %.17g)",
                      dev.c_str(), i,
                      static_cast<long long>(g->points[i].first),
                      g->points[i].second,
                      static_cast<long long>(want[i].first), want[i].second);
        return buf;
      }
    }
  }
  if (got.size() != expected_groups) {
    return std::to_string(got.size()) + " groups, expected " +
           std::to_string(expected_groups);
  }
  return {};
}

std::string check_rate(const std::vector<TsGroup>& got,
                       const DeviceSeries& raw, SimTime start, SimTime end,
                       int width_bits, std::size_t* wraps) {
  std::size_t expected_groups = 0;
  std::string first_error;
  for (const auto& [dev, pts] : raw) {
    // The intervals a rate series has a point for: successive raw points
    // with dt > 0, the later one inside [start, end).
    std::vector<std::pair<SimTime, SimTime>> spans;  // (t_prev, t)
    double increase = 0.0;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const SimTime dt = pts[i].t - pts[i - 1].t;
      if (dt <= 0 || pts[i].t < start || pts[i].t >= end) continue;
      spans.emplace_back(pts[i - 1].t, pts[i].t);
      increase +=
          static_cast<double>(width_delta(pts[i - 1].v, pts[i].v, width_bits));
      if (wraps != nullptr && pts[i].v < pts[i - 1].v) ++*wraps;
    }
    if (spans.empty()) continue;
    ++expected_groups;
    const TsGroup* g = group_of(got, dev);
    std::string err;
    if (g == nullptr) {
      err = "device " + dev + ": group missing";
    } else if (g->points.size() != spans.size()) {
      err = "device " + dev + ": " + std::to_string(g->points.size()) +
            " rate points, expected " + std::to_string(spans.size());
    } else {
      double integral = 0.0;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (g->points[i].first != spans[i].second) {
          err = "device " + dev + ": rate point " + std::to_string(i) +
                " at the wrong time";
          break;
        }
        integral += g->points[i].second *
                    util::to_seconds(spans[i].second - spans[i].first);
      }
      if (err.empty() && !near(integral, increase, 1e-7)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "device %s: integrated rate %.17g, counter increase "
                      "%.17g",
                      dev.c_str(), integral, increase);
        err = buf;
      }
    }
    if (!err.empty() && first_error.empty()) first_error = err;
  }
  if (first_error.empty() && got.size() != expected_groups) {
    first_error = std::to_string(got.size()) + " groups, expected " +
                  std::to_string(expected_groups);
  }
  return first_error;
}

std::size_t search_matched(const std::string& payload) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(payload.c_str(), &end, 10);
  if (end == payload.c_str() || std::string(end).rfind(" jobs matched", 0) != 0) {
    return SIZE_MAX;
  }
  return static_cast<std::size_t>(n);
}

std::string check_histogram(const std::string& payload, std::size_t matched) {
  static const std::string kPanel = "Nodes (n=";
  std::istringstream is(payload);
  std::string line;
  bool in_panel = false;
  std::size_t sum = 0;
  std::size_t bins = 0;
  while (std::getline(is, line)) {
    if (line.rfind(kPanel, 0) == 0) {
      in_panel = true;
      continue;
    }
    if (!in_panel) continue;
    if (line.rfind("  [", 0) != 0) break;
    // "  [      lo,       hi)   count |###"
    const auto close = line.find(')');
    const auto bar = line.find('|');
    if (close == std::string::npos || bar == std::string::npos) {
      return "malformed bin line: " + line;
    }
    sum += std::strtoull(line.substr(close + 1, bar - close - 1).c_str(),
                         nullptr, 10);
    ++bins;
  }
  if (!in_panel) return "no Nodes panel";
  if (sum != matched) {
    return "Nodes bins sum to " + std::to_string(sum) + " over " +
           std::to_string(bins) + " bins, search matched " +
           std::to_string(matched);
  }
  return {};
}

}  // namespace e2e
