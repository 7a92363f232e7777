// Ablation harness for the design decisions DESIGN.md calls out:
//
//  A1. Wraparound correction. RAPL energy-status registers are 32 bits and
//      wrap every ~10-20 minutes at server power draws. The pipeline
//      corrects deltas modulo 2^width per interval; ablating the width
//      metadata (treating the counter as 64-bit) makes every wrapped
//      interval read as a counter reset, which contributes nothing, so
//      energy metrics lose every interval that spans a wrap.
//  A2. Per-interval vs endpoint-only deltas. For narrow counters the ARC
//      must accumulate wrap-corrected per-interval deltas; computing the
//      job delta from the first and last records alone loses every full
//      wrap in between.
//  A3. Secondary indexes. Portal metadata lookups use the exe/user/queue
//      indexes; ablating them turns O(log n + k) lookups into full scans.
#include "bench_common.hpp"

#include "pipeline/metrics.hpp"
#include "portal/search.hpp"

namespace {

using namespace tacc;

workload::JobSpec reference_job(util::SimTime runtime) {
  workload::JobSpec job;
  job.jobid = 3107777;
  job.user = "user001";
  job.profile = "md_engine";  // steady high power
  job.exe = "namd2";
  job.nodes = 1;
  job.wayness = 16;
  job.start_time = util::make_time(2016, 1, 6, 2, 0);
  job.end_time = job.start_time + runtime;
  job.submit_time = job.start_time;
  return job;
}

/// Strips the width metadata from every schema (the A1 ablation).
pipeline::JobData ablate_widths(pipeline::JobData data) {
  for (auto& host : data.hosts) {
    std::vector<collect::Schema> widened;
    for (const auto& schema : host.schemas) {
      std::vector<collect::SchemaEntry> entries = schema.entries();
      for (auto& e : entries) e.width_bits = 64;
      widened.emplace_back(schema.type(), std::move(entries));
    }
    host.schemas = std::move(widened);
  }
  return data;
}

/// Keeps only the first and last records (the A2 ablation).
pipeline::JobData ablate_endpoints(pipeline::JobData data) {
  for (auto& host : data.hosts) {
    if (host.records.size() > 2) {
      host.records = {host.records.front(), host.records.back()};
    }
  }
  return data;
}

void report() {
  bench::banner("Ablations of the design decisions in DESIGN.md");

  // A1/A2: a 2-hour steady job sampled at 10 minutes; the RAPL registers
  // wrap several times over the job but at most once per interval.
  pipeline::MiniSimOptions opts;
  opts.samples = 11;
  const auto data = simulate_job(reference_job(2 * util::kHour), opts);
  const auto full = compute_metrics(data);
  const auto no_width = compute_metrics(ablate_widths(data));
  const auto endpoints = compute_metrics(ablate_endpoints(data));

  std::printf("A1/A2: RAPL package power of a steady ~120 W node, 2 h job, "
              "10-minute sampling\n\n");
  util::TextTable t;
  t.header({"Variant", "PkgWatts", "Error vs full", "Why"});
  auto err = [&](double v) {
    return bench::pct((v - full.PkgWatts) / full.PkgWatts, 3);
  };
  t.row({"full pipeline (W=32, per-interval deltas)",
         bench::num(full.PkgWatts, 4), "-", "reference"});
  t.row({"A1: width metadata ablated (W=64)",
         bench::num(no_width.PkgWatts, 4), err(no_width.PkgWatts),
         "wrapped intervals read as 64-bit resets and add nothing"});
  t.row({"A2: endpoint-only delta",
         bench::num(endpoints.PkgWatts, 4), err(endpoints.PkgWatts),
         "full wraps between the endpoints are lost"});
  std::fputs(t.render().c_str(), stdout);
  std::printf(
      "\nCPU_Usage (64-bit jiffies) is identical in all variants: %s / %s / "
      "%s -- the ablation only harms narrow counters.\n",
      bench::num(full.CPU_Usage, 4).c_str(),
      bench::num(no_width.CPU_Usage, 4).c_str(),
      bench::num(endpoints.CPU_Usage, 4).c_str());
}

void BM_IndexedLookup(benchmark::State& state) {
  db::Database database;
  bench::build_population_db(database, static_cast<int>(state.range(0)));
  auto& jobs = database.table(pipeline::kJobsTable);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jobs.select({{"exe", db::Op::Eq, db::Value("wrf.exe")}}));
  }
  state.SetLabel("with index");
}
BENCHMARK(BM_IndexedLookup)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_ScanLookup(benchmark::State& state) {
  // A3: same query against an unindexed copy of the table.
  db::Database database;
  bench::build_population_db(database, static_cast<int>(state.range(0)));
  auto& jobs = database.table(pipeline::kJobsTable);
  db::Table copy("jobs_noindex", jobs.columns());
  for (db::RowId id = 0; id < jobs.num_rows(); ++id) {
    copy.insert(jobs.row(id));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        copy.select({{"exe", db::Op::Eq, db::Value("wrf.exe")}}));
  }
  state.SetLabel("full scan");
}
BENCHMARK(BM_ScanLookup)->Arg(1000)->Unit(benchmark::kMicrosecond);

}  // namespace

TS_BENCH_MAIN(report)
