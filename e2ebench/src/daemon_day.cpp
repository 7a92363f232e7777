// daemon_day: paper Fig. 2 in daemon mode, taken through every stage. A
// seeded job mix runs on 16 nodes for 24 h at 1-minute cadence (flat
// broker, online analyzer on); the archive then goes through Table I
// metrics and flags into db, and into a durable, sealed tsdb::Store flushed
// once at the end of the load; a short fixed portal pass ends the day.
//
// One round is one whole day. Operations: every collected record (failed
// unless archived exactly once) and every portal query (failed unless Ok).
#include <filesystem>

#include "checks.hpp"
#include "day.hpp"
#include "pipeline/ingest.hpp"
#include "portal/engine.hpp"
#include "tsdb/store.hpp"

namespace e2e {

using namespace tacc;

namespace {

/// The day's closing portal pass: per completed job its detail page and
/// the Fig. 5 CPU panel of its first host at 10-minute buckets, then one
/// Fig. 3 search and its Fig. 4 histograms per day user.
std::vector<portal::QueryRequest> portal_pass(
    const std::vector<workload::AccountingRecord>& accounting) {
  using Kind = portal::QueryRequest::Kind;
  std::vector<portal::QueryRequest> out;
  for (const auto& job : accounting) {
    portal::QueryRequest detail;
    detail.kind = Kind::JobDetail;
    detail.jobid = job.jobid;
    out.push_back(detail);
    if (job.hostnames.empty()) continue;
    portal::QueryRequest ts;
    ts.kind = Kind::Timeseries;
    ts.ts.metric = "taccstats.cpu.user";
    ts.ts.filters = {{"host", job.hostnames.front()}};
    ts.ts.group_by = {"device"};
    ts.ts.downsample = 10 * util::kMinute;
    ts.ts.start = job.start_time;
    ts.ts.end = job.end_time;
    out.push_back(ts);
  }
  for (int u = 0; u < 8; ++u) {
    portal::QueryRequest search;
    search.kind = Kind::Search;
    search.query.user = "dayuser" + std::to_string(u);
    out.push_back(search);
    auto hist = search;
    hist.kind = Kind::Histograms;
    out.push_back(hist);
  }
  return out;
}

}  // namespace

void run_daemon_day(const Options& opt, Tracer& tracer, Outcome& out) {
  const DayShape shape;
  Timers timers;
  int max_threads = 0;
  const auto note_threads = [&] { max_threads = std::max(max_threads, thread_count()); };
  double samples = 0, points = 0, series = 0, blocks = 0, jobs = 0;
  double records = 0, day_s = 0;
  tsdb::DiskStats disk;

  RoundPlan plan(opt, tracer, out);
  while (plan.next()) {
    Day day(shape, opt.seed);
    const std::string store_dir = opt.work_dir + "/daemon_day_tsdb";
    std::filesystem::remove_all(store_dir);

    plan.start();
    {
      Timed stage(tracer, timers, "stage.collect");
      day.run(tracer, timers);
      note_threads();
    }
    const auto accounting = day.accounting();
    db::Database database;
    {
      Timed stage(tracer, timers, "stage.table1");
      Timed call(tracer, timers, "pipeline.table1");
      pipeline::ingest_from_archive(database, day.archive(), accounting);
    }
    tsdb::StoreOptions so;
    so.data_dir = store_dir;
    tsdb::Store store(so);
    pipeline::TsdbIngestStats ingest;
    {
      Timed stage(tracer, timers, "stage.tsdb");
      {
        Timed call(tracer, timers, "pipeline.tsdb_ingest");
        pipeline::TsdbIngestOptions io;
        io.seal = true;
        ingest = pipeline::ingest_archive_tsdb(store, day.archive(), nullptr, io);
      }
      Timed call(tracer, timers, "tsdb.flush");
      store.flush();
    }
    const auto& jobs_table = database.table(pipeline::kJobsTable);
    const auto requests = portal_pass(accounting);
    std::vector<portal::QueryResult> results;
    results.reserve(requests.size());
    {
      Timed stage(tracer, timers, "stage.portal");
      portal::QueryEngineOptions eo;
      eo.workers = 1;
      portal::QueryEngine engine(jobs_table, &store, eo);
      note_threads();
      for (std::size_t i = 0; i < requests.size(); ++i) {
        Timed call(tracer, timers, "portal.query", i + 1);
        results.push_back(engine.execute(requests[i]));
      }
    }
    const std::uint64_t published = day.monitor().published_unique();
    const std::uint64_t ops = published + requests.size();
    day_s += plan.stop(ops);

    // ---- checks (outside the timed phase) ----
    std::vector<std::string> why;
    const auto bad_records = records_not_exactly_once(
        snapshot_archive(day.archive()), published, why);
    for (const auto& w : why) out.fail("archive: " + w);
    std::uint64_t bad_queries = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].status != portal::QueryStatus::Ok) {
        ++bad_queries;
        out.fail("portal pass query " + std::to_string(i) + ": " +
                 portal::to_string(results[i].status) + " " + results[i].error);
      }
    }
    const auto tally = count_raw_values(day.archive());
    if (tally != ingest.points || store.num_points() != ingest.points) {
      out.fail("tsdb: " + std::to_string(store.num_points()) +
               " points stored, ingest reported " +
               std::to_string(ingest.points) + ", archive holds " +
               std::to_string(tally) + " raw values");
    }
    check_table1(stored_metric(jobs_table, "MDCReqs"),
                 recompute_mdc_reqs(day.archive(), accounting), out.errors);

    out.attempted += ops;
    out.failed += bad_records + bad_queries;
    samples = static_cast<double>(day.monitor().daemon_stats().collections);
    records = static_cast<double>(published);
    points = static_cast<double>(ingest.points);
    series = static_cast<double>(store.num_series());
    blocks = static_cast<double>(store.storage_stats().sealed_blocks);
    jobs = static_cast<double>(accounting.size());
    disk = store.disk_stats();
    store.close();
    std::filesystem::remove_all(store_dir);
  }

  const double n = plan.rounds();
  const auto per_round = [&](const char* name) { return timers[name] / n; };
  auto& L = out.layer;
  L["core.advance_s"] = per_round("core.advance");
  L["collect.samples"] = samples;
  L["collect.ms_per_sample"] = 1e3 * per_round("core.advance") / samples;
  L["transport.drain_s"] = per_round("transport.drain");
  L["pipeline.table1_s"] = per_round("pipeline.table1");
  L["pipeline.tsdb_ingest_s"] = per_round("pipeline.tsdb_ingest");
  L["tsdb.flush_s"] = per_round("tsdb.flush");
  L["tsdb.points"] = points;
  L["tsdb.series"] = series;
  L["tsdb.sealed_blocks"] = blocks;
  L["tsdb.segment_bytes"] = static_cast<double>(disk.segment_bytes);
  L["tsdb.tier_bytes"] = static_cast<double>(disk.tier_bytes);
  L["tsdb.wal_bytes"] = static_cast<double>(disk.wal_bytes);
  L["portal.pass_s"] = per_round("stage.portal");
  L["day_s"] = day_s / n;
  L["archive_records_per_s"] =
      records / (per_round("core.advance") + per_round("transport.drain"));
  L["table1_jobs_per_s"] = jobs / per_round("pipeline.table1");
  L["tsdb_mpoints_per_s"] =
      points / 1e6 /
      (per_round("pipeline.tsdb_ingest") + per_round("tsdb.flush"));
  L["tsdb_bytes_per_point"] =
      static_cast<double>(disk.primary_bytes()) /
      static_cast<double>(std::max<std::size_t>(1, disk.persisted_points));
  L["threads.max"] = max_threads;
}

}  // namespace e2e
