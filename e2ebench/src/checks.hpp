// Output checks, computed apart from the program: every expected value is
// derived here from the archived raw records (or from a property the method
// must have), never by calling the pipeline, tsdb or portal code under test.
// Each check takes plain copies of a result so the self-test can feed it
// deliberately corrupted ones.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "collect/rawfile.hpp"
#include "db/table.hpp"
#include "transport/archive.hpp"
#include "util/clock.hpp"
#include "workload/jobs.hpp"

namespace e2e {

using tacc::util::SimTime;

// ---- exactly-once archive ---------------------------------------------

/// One host's archived records as (time, mark) keys, plus the producer
/// sequence numbers the archive remembers for it, ascending.
struct HostRecords {
  std::string host;
  std::vector<std::pair<SimTime, std::string>> keys;
  std::vector<std::uint64_t> seqs;
};

std::vector<HostRecords> snapshot_archive(
    const tacc::transport::RawArchive& archive);

/// Records not archived exactly once: sequence numbers missing from
/// 1..n per host or from the published total, plus surplus copies.
/// Appends a reason per offending host to `why`.
std::uint64_t records_not_exactly_once(const std::vector<HostRecords>& hosts,
                                       std::uint64_t published,
                                       std::vector<std::string>& why);

/// Raw counter values in the archive that have a schema entry: the point
/// count an archive -> tsdb load must produce.
std::uint64_t count_raw_values(const tacc::transport::RawArchive& archive);

// ---- Table I ------------------------------------------------------------

/// jobid -> value of one Real column (NULL rows are omitted).
std::map<long, double> stored_metric(const tacc::db::Table& jobs,
                                     const std::string& column);

/// MDCReqs (average MDS request rate per node) recomputed from the
/// archived mdc counters: per host, the wrap-corrected sum of per-interval
/// deltas over the job's records divided by the job's elapsed time there,
/// averaged over hosts.
std::map<long, double> recompute_mdc_reqs(
    const tacc::transport::RawArchive& archive,
    const std::vector<tacc::workload::AccountingRecord>& accounting);

/// Every expected job is stored, with a value equal within rounding.
void check_table1(const std::map<long, double>& stored,
                  const std::map<long, double>& expected,
                  std::vector<std::string>& errors);

// ---- raw series and portal payloads --------------------------------------

struct RawPoint {
  SimTime t = 0;
  std::uint64_t v = 0;
};

/// device -> one event's raw points on one host, time-sorted (stable, so
/// equal times keep archive order — the order a tsdb load keeps them in).
using DeviceSeries = std::map<std::string, std::vector<RawPoint>>;

/// Pulls (type, event) out of a host log. `width` receives the schema's
/// counter width when non-null.
DeviceSeries raw_series(const tacc::collect::HostLog& log,
                        const std::string& type, const std::string& event,
                        int* width = nullptr);

/// Keeps the points with t < cutoff (what a store loaded up to `cutoff`
/// holds).
DeviceSeries truncate(const DeviceSeries& series, SimTime cutoff);

/// One group of a rendered Timeseries payload.
struct TsGroup {
  std::string tags;  // "device=0"
  std::vector<std::pair<std::int64_t, double>> points;
};

/// Parses portal::render_timeseries output. Returns false if malformed.
bool parse_timeseries(const std::string& payload, std::vector<TsGroup>& out);

/// Fig. 5: each group (one device) holds the Avg-downsampled buckets of its
/// raw points in [start, end), bucket = t - t % ds. Returns "" or a reason.
std::string check_buckets(const std::vector<TsGroup>& got,
                          const DeviceSeries& raw, SimTime start, SimTime end,
                          SimTime ds);

/// Rate series: integrated over the window, each group equals the
/// counter's width-aware increase over the same intervals. Returns "" or a
/// reason. `wraps` (optional out) counts intervals whose counter wrapped.
std::string check_rate(const std::vector<TsGroup>& got,
                       const DeviceSeries& raw, SimTime start, SimTime end,
                       int width_bits, std::size_t* wraps = nullptr);

/// "N jobs matched" of a Search payload (SIZE_MAX if absent).
std::size_t search_matched(const std::string& payload);

/// Fig. 4: the Nodes panel's bin counts (a NULL-free column) sum to the
/// number of jobs the same form's search matched. Returns "" or a reason.
std::string check_histogram(const std::string& payload, std::size_t matched);

}  // namespace e2e
