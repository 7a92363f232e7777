// Self-test of the benchmark's checks: a small monitored day goes through
// every stage, each check must accept the real result, and each must
// reject a deliberately corrupted copy of it. Run by `e2ebench --self-test`
// (and ctest in the benchmark's build tree).
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "checks.hpp"
#include "day.hpp"
#include "pipeline/ingest.hpp"
#include "portal/engine.hpp"
#include "tsdb/store.hpp"

namespace e2e {

using namespace tacc;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "  %-62s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

}  // namespace

int run_self_test() {
  std::fprintf(stderr, "e2ebench self-test: checks accept real results and "
                       "reject corrupted copies\n");
  DayShape shape;
  shape.nodes = 2;
  shape.length = 4 * util::kHour;
  shape.interval = 5 * util::kMinute;
  shape.jobs = 3;
  Day day(shape, 7);
  Tracer off(false);
  Timers timers;
  day.run(off, timers);
  const auto accounting = day.accounting();
  db::Database database;
  pipeline::ingest_from_archive(database, day.archive(), accounting);
  const auto& jobs = database.table(pipeline::kJobsTable);
  tsdb::Store store;
  pipeline::ingest_archive_tsdb(store, day.archive());
  portal::QueryEngineOptions eo;
  eo.workers = 1;
  portal::QueryEngine engine(jobs, &store, eo);

  // ---- archive: exactly once ----
  const auto snapshot = snapshot_archive(day.archive());
  const auto published = day.monitor().published_unique();
  std::vector<std::string> why;
  expect(records_not_exactly_once(snapshot, published, why) == 0,
         "archive check accepts the archive");
  {
    auto dropped = snapshot;
    dropped[0].keys.erase(dropped[0].keys.begin() + 3);
    expect(records_not_exactly_once(dropped, published, why) > 0,
           "archive check rejects a dropped record");
    auto duplicated = snapshot;
    duplicated[1].keys.push_back(duplicated[1].keys[5]);
    expect(records_not_exactly_once(duplicated, published, why) > 0,
           "archive check rejects a duplicated record");
    auto lost_seq = snapshot;
    lost_seq[0].keys.pop_back();
    lost_seq[0].seqs.pop_back();
    expect(records_not_exactly_once(lost_seq, published, why) > 0,
           "archive check rejects a record lost with its sequence number");
  }

  // ---- Table I ----
  const auto stored = stored_metric(jobs, "MDCReqs");
  const auto expected = recompute_mdc_reqs(day.archive(), accounting);
  std::vector<std::string> errors;
  check_table1(stored, expected, errors);
  expect(errors.empty() && !expected.empty(),
         "Table I check accepts the stored MDCReqs");
  {
    auto perturbed = stored;
    perturbed.begin()->second *= 1.0 + 1e-6;
    std::vector<std::string> e;
    check_table1(perturbed, expected, e);
    expect(!e.empty(), "Table I check rejects one perturbed value");
  }

  // ---- Fig. 5 buckets and rates ----
  // The longest job, so its Fig. 5 page spans several buckets.
  const auto& job = *std::max_element(
      accounting.begin(), accounting.end(), [](const auto& a, const auto& b) {
        return a.end_time - a.start_time < b.end_time - b.start_time;
      });
  const std::string host = job.hostnames.front();
  int cpu_width = 64;
  const auto cpu = raw_series(day.archive().log(host), "cpu", "user", &cpu_width);
  portal::QueryRequest fig5;
  fig5.kind = portal::QueryRequest::Kind::Timeseries;
  fig5.ts.metric = "taccstats.cpu.user";
  fig5.ts.filters = {{"host", host}};
  fig5.ts.group_by = {"device"};
  fig5.ts.downsample = 10 * util::kMinute;
  fig5.ts.start = job.start_time;
  fig5.ts.end = job.end_time;
  std::vector<TsGroup> buckets;
  expect(parse_timeseries(engine.execute(fig5).payload, buckets) &&
             !buckets.empty(),
         "Fig. 5 payload parses");
  expect(check_buckets(buckets, cpu, fig5.ts.start, fig5.ts.end,
                       fig5.ts.downsample)
             .empty(),
         "Fig. 5 check accepts the buckets");
  {
    auto shifted = buckets;
    shifted[0].points.back().first += fig5.ts.downsample;
    expect(!check_buckets(shifted, cpu, fig5.ts.start, fig5.ts.end,
                          fig5.ts.downsample)
                .empty(),
           "Fig. 5 check rejects one shifted bucket");
  }
  auto rate = fig5;
  rate.ts.rate = true;
  rate.ts.downsample = 0;
  std::vector<TsGroup> rates;
  parse_timeseries(engine.execute(rate).payload, rates);
  expect(check_rate(rates, cpu, rate.ts.start, rate.ts.end, cpu_width).empty(),
         "rate check accepts the rate series");
  {
    auto zeroed = rates;
    for (auto& p : zeroed[0].points) {
      if (p.second > 0.0) {
        p.second = 0.0;
        break;
      }
    }
    expect(!check_rate(zeroed, cpu, rate.ts.start, rate.ts.end, cpu_width)
                .empty(),
           "rate check rejects one zeroed non-wrapping interval");
  }

  // ---- Fig. 4 histograms ----
  portal::QueryRequest search;
  search.kind = portal::QueryRequest::Kind::Search;
  auto hist = search;
  hist.kind = portal::QueryRequest::Kind::Histograms;
  const auto matched = search_matched(engine.execute(search).payload);
  const auto histogram = engine.execute(hist).payload;
  expect(matched == accounting.size(), "search matches every job");
  expect(check_histogram(histogram, matched).empty(),
         "histogram check accepts the Nodes panel");
  {
    // Drop the first non-empty bin line of the Nodes panel.
    std::string dropped = histogram;
    auto at = dropped.find("Nodes (n=");
    while (at != std::string::npos) {
      at = dropped.find("\n  [", at);
      if (at == std::string::npos) break;
      const auto end = dropped.find('\n', at + 1);
      const std::string line = dropped.substr(at + 1, end - at - 1);
      const auto close = line.find(')');
      if (std::strtoull(line.c_str() + close + 1, nullptr, 10) > 0) {
        dropped.erase(at + 1, end - at);
        break;
      }
      at = end;
    }
    expect(!check_histogram(dropped, matched).empty(),
           "histogram check rejects a dropped bin");
  }

  std::fprintf(stderr, "self-test: %s\n",
               g_failures == 0 ? "all checks behave" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace e2e
