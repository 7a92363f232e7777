// portal_live: one closed-loop client drives portal::QueryEngine (one
// worker, result cache at its default size) while the day's data keeps
// arriving. The jobs table holds a generated population (Fig. 3/4 traffic)
// plus the day's own jobs; the tsdb starts with the first half of the
// daemon_day archive, and the second half is appended in 15-minute slices,
// one slice after every kQueriesPerSlice queries.
//
// One round replays that afternoon from the half-day store: 48 slices, each
// preceded by a fixed mix of Fig. 3 searches, Fig. 4 histograms, job
// details, Fig. 5 series at 10/30-minute buckets, rate queries and the
// Fig. 5 power panel. Rebuilding the half-day store between rounds is
// harness work outside the timed stages. Operations: every query (failed
// unless Ok and checked) and every append batch.
#include <algorithm>
#include <cmath>
#include <memory>

#include "checks.hpp"
#include "day.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/minisim.hpp"
#include "portal/engine.hpp"
#include "tsdb/store.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace e2e {

using namespace tacc;

namespace {

constexpr int kPopulationJobs = 2000;
constexpr util::SimTime kSlice = 15 * util::kMinute;
constexpr int kSlices = 48;  // the second 12 h of the day
constexpr util::SimTime kMidday = kDayStart + 12 * util::kHour;

enum class Kind { Search, Histograms, Detail, Timeseries, Rate, Power };
constexpr const char* kKindNames[] = {"search", "histograms", "detail",
                                      "timeseries", "rate", "power"};

/// The query kinds of one slice, in order: 8 searches, 8 histograms, 6
/// job details, 8 Fig. 5 series, 6 rate queries and 4 power panels.
constexpr Kind kSliceMix[] = {
    Kind::Search,     Kind::Histograms, Kind::Timeseries, Kind::Detail,
    Kind::Rate,       Kind::Search,     Kind::Histograms, Kind::Timeseries,
    Kind::Power,      Kind::Search,     Kind::Histograms, Kind::Detail,
    Kind::Timeseries, Kind::Rate,       Kind::Search,     Kind::Histograms,
    Kind::Timeseries, Kind::Detail,     Kind::Power,      Kind::Search,
    Kind::Histograms, Kind::Timeseries, Kind::Rate,       Kind::Detail,
    Kind::Search,     Kind::Histograms, Kind::Timeseries, Kind::Power,
    Kind::Rate,       Kind::Detail,     Kind::Search,     Kind::Histograms,
    Kind::Timeseries, Kind::Rate,       Kind::Search,     Kind::Histograms,
    Kind::Timeseries, Kind::Detail,     Kind::Power,      Kind::Rate};
constexpr std::size_t kQueriesPerSlice = std::size(kSliceMix);

struct Planned {
  Kind kind = Kind::Search;
  portal::QueryRequest request;
  int form = -1;  // Search/Histograms: index into the form list
  std::string host;
  SimTime cutoff = 0;  // the store holds every point before this
};

/// The Fig. 3 query forms the client picks from.
std::vector<portal::PortalQuery> make_forms(
    const std::vector<workload::JobSpec>& population) {
  std::vector<portal::PortalQuery> forms;
  std::vector<std::string> users;
  for (const auto& j : population) {
    if (std::find(users.begin(), users.end(), j.user) == users.end()) {
      users.push_back(j.user);
    }
    if (users.size() == 4) break;
  }
  for (const auto& u : users) {
    portal::PortalQuery q;
    q.user = u;
    forms.push_back(q);
  }
  for (const char* exe : {"wrf.exe", "namd2", "python"}) {
    portal::PortalQuery q;
    q.exe = exe;
    forms.push_back(q);
  }
  {
    portal::PortalQuery q;
    q.queue = "normal";
    q.min_runtime_s = 3600.0;
    forms.push_back(q);
  }
  {
    portal::PortalQuery q;
    q.search_fields = {"MetaDataRate__gte=1000"};
    forms.push_back(q);
  }
  {
    portal::PortalQuery q;
    q.search_fields = {"CPU_Usage__lt=0.5"};
    forms.push_back(q);
  }
  {
    portal::PortalQuery q;
    q.date_start = kDayStart;
    q.date_end = kDayStart + util::kDay;
    forms.push_back(q);
  }
  return forms;
}

/// Raw points of the series the checks recompute, per host.
struct HostRaw {
  DeviceSeries cpu_user, mem_used, energy;
  int cpu_width = 64, energy_width = 64;
};

struct Setup {
  db::Database database;
  std::vector<workload::AccountingRecord> day_jobs;
  std::vector<long> detail_ids;
  std::vector<portal::PortalQuery> forms;
  transport::RawArchive first_half;
  std::vector<std::unique_ptr<transport::RawArchive>> slices;
  std::vector<std::size_t> slice_points;
  std::map<std::string, HostRaw> raw;
  std::vector<Planned> plan;
};

void split_archive(Setup& s, const transport::RawArchive& archive) {
  s.slices.resize(kSlices);
  s.slice_points.assign(kSlices, 0);
  for (auto& a : s.slices) a = std::make_unique<transport::RawArchive>();
  for (const auto& host : archive.hosts()) {
    archive.visit_log(host, [&](const collect::HostLog& log) {
      std::map<std::string, std::size_t> arity;
      for (const auto& sc : log.schemas) arity[sc.type()] = sc.size();
      s.first_half.add_header(host, log.arch, log.schemas);
      for (auto& a : s.slices) a->add_header(host, log.arch, log.schemas);
      for (const auto& rec : log.records) {
        if (rec.time < kMidday) {
          s.first_half.append(host, rec, rec.time);
          continue;
        }
        const auto k = std::min<SimTime>((rec.time - kMidday) / kSlice,
                                         kSlices - 1);
        s.slices[static_cast<std::size_t>(k)]->append(host, rec, rec.time);
        for (const auto& b : rec.blocks) {
          const auto it = arity.find(b.type);
          if (it != arity.end()) {
            s.slice_points[static_cast<std::size_t>(k)] +=
                std::min(it->second, b.values.size());
          }
        }
      }
      auto& raw = s.raw[host];
      raw.cpu_user = raw_series(log, "cpu", "user", &raw.cpu_width);
      raw.mem_used = raw_series(log, "mem", "MemUsed");
      raw.energy = raw_series(log, "rapl", "energy_pkg", &raw.energy_width);
    });
  }
}

void make_plan(Setup& s, std::uint64_t seed) {
  using QKind = portal::QueryRequest::Kind;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<std::string> hosts;
  for (const auto& [h, raw] : s.raw) hosts.push_back(h);
  for (int slice = 0; slice < kSlices; ++slice) {
    const SimTime cutoff = kMidday + slice * kSlice;
    // Day jobs that have started by now (their Fig. 5 pages have data).
    std::vector<const workload::AccountingRecord*> live;
    for (const auto& j : s.day_jobs) {
      if (j.start_time < cutoff && !j.hostnames.empty()) live.push_back(&j);
    }
    // Four forms per slice, so repeats within a slice can hit the cache.
    std::size_t forms[4];
    for (auto& f : forms) f = pick(s.forms.size());
    int nth = 0;
    for (const Kind kind : kSliceMix) {
      Planned p;
      p.kind = kind;
      p.cutoff = cutoff;
      auto& r = p.request;
      switch (kind) {
        case Kind::Search:
        case Kind::Histograms:
          r.kind = kind == Kind::Search ? QKind::Search : QKind::Histograms;
          p.form = static_cast<int>(forms[(nth++ / 2) % 4]);
          r.query = s.forms[static_cast<std::size_t>(p.form)];
          break;
        case Kind::Detail:
          r.kind = QKind::JobDetail;
          r.jobid = s.detail_ids[pick(s.detail_ids.size())];
          break;
        case Kind::Timeseries:
        case Kind::Rate: {
          const auto& job = *live[pick(live.size())];
          p.host = job.hostnames[pick(job.hostnames.size())];
          r.kind = QKind::Timeseries;
          r.ts.filters = {{"host", p.host}};
          r.ts.group_by = {"device"};
          r.ts.start = job.start_time;
          r.ts.end = job.end_time;
          if (kind == Kind::Rate) {
            r.ts.metric = "taccstats.cpu.user";
            r.ts.rate = true;
          } else {
            r.ts.metric = pick(2) == 0 ? "taccstats.cpu.user"
                                       : "taccstats.mem.MemUsed";
            r.ts.downsample = (pick(2) == 0 ? 10 : 30) * util::kMinute;
          }
          break;
        }
        case Kind::Power:
          // The Fig. 5 power panel over the day so far.
          p.host = hosts[pick(hosts.size())];
          r.kind = QKind::Timeseries;
          r.ts.metric = "taccstats.rapl.energy_pkg";
          r.ts.rate = true;
          r.ts.filters = {{"host", p.host}};
          r.ts.group_by = {"device"};
          r.ts.start = kDayStart;
          r.ts.end = cutoff;
          break;
      }
      s.plan.push_back(std::move(p));
    }
  }
}

/// Checks one query's payload against values recomputed from the archive.
/// Returns "" or why it does not match.
std::string check_query(const Setup& s, const Planned& p,
                        const portal::QueryResult& res,
                        const std::vector<std::size_t>& matched) {
  if (res.status != portal::QueryStatus::Ok) {
    return std::string(portal::to_string(res.status)) + " " + res.error;
  }
  switch (p.kind) {
    case Kind::Search:
      return search_matched(res.payload) ==
                     matched[static_cast<std::size_t>(p.form)]
                 ? ""
                 : "search count differs from the form's count";
    case Kind::Histograms:
      return check_histogram(res.payload,
                             matched[static_cast<std::size_t>(p.form)]);
    case Kind::Detail:
      return res.payload.empty() ? "empty detail page" : "";
    default:
      break;
  }
  std::vector<TsGroup> groups;
  if (!parse_timeseries(res.payload, groups)) return "unparsable series";
  const auto& raw = s.raw.at(p.host);
  const auto& q = p.request.ts;
  if (p.kind == Kind::Timeseries) {
    const auto& series =
        q.metric == "taccstats.cpu.user" ? raw.cpu_user : raw.mem_used;
    return check_buckets(groups, truncate(series, p.cutoff), q.start, q.end,
                         q.downsample);
  }
  if (p.kind == Kind::Rate) {
    return check_rate(groups, truncate(raw.cpu_user, p.cutoff), q.start, q.end,
                      raw.cpu_width);
  }
  return check_rate(groups, truncate(raw.energy, p.cutoff), q.start, q.end,
                    raw.energy_width);
}

/// Rank-based percentile (nearest rank).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

}  // namespace

void run_portal_live(const Options& opt, Tracer& tracer, Outcome& out) {
  // ---- set-up: the jobs table, the split archive, the plan ----
  // The population is mini-simulated first, on cores - 1 workers while the
  // driving thread waits; the day's monitor (and its consumer thread) is
  // gone before the rounds start.
  Setup s;
  workload::PopulationConfig pc;
  pc.num_jobs = kPopulationJobs;
  pc.storm_jobs = 105;
  pc.seed = opt.seed;
  const auto population = workload::generate_population(pc);
  pipeline::MiniSimOptions mo;
  mo.samples = 3;
  pipeline::ingest_population(
      s.database, population, mo,
      static_cast<std::size_t>(std::max(1, core_count() - 1)));
  std::uint64_t day_points = 0;
  {
    Day day(DayShape{}, opt.seed);
    Tracer off(false);
    Timers ignored;
    day.run(off, ignored);
    s.day_jobs = day.accounting();
    pipeline::ingest_from_archive(s.database, day.archive(), s.day_jobs);
    split_archive(s, day.archive());
    day_points = count_raw_values(day.archive());
  }
  const auto& jobs_table = s.database.table(pipeline::kJobsTable);
  for (std::size_t i = 0; i < population.size(); i += 97) {
    s.detail_ids.push_back(population[i].jobid);
  }
  for (const auto& j : s.day_jobs) s.detail_ids.push_back(j.jobid);
  s.forms = make_forms(population);
  make_plan(s, opt.seed);

  // Expected search counts per form, from the table (jobs never change).
  std::vector<std::size_t> matched;
  for (const auto& f : s.forms) {
    matched.push_back(portal::run_query(jobs_table, f).size());
  }

  const auto load_first_half = [&](tsdb::Store& store) {
    pipeline::TsdbIngestOptions io;
    io.seal = true;
    pipeline::ingest_archive_tsdb(store, s.first_half, nullptr, io);
  };
  const auto append_slice = [&](tsdb::Store& store, int k) {
    pipeline::TsdbIngestOptions io;
    io.seal = false;  // more appends to the same series follow
    pipeline::ingest_archive_tsdb(store, *s.slices[static_cast<std::size_t>(k)],
                                  nullptr, io);
  };

  Timers timers;
  int max_threads = thread_count();
  std::vector<double> latency_ms;
  std::map<Kind, std::vector<double>> kind_ms;
  std::vector<portal::QueryResult> reference;  // round 0's answers
  std::uint64_t appended_points = 0;
  double hits = 0, lookups = 0, rebuilds = 0, evictions = 0, head_points = 0;

  RoundPlan plan(opt, tracer, out);
  while (plan.next()) {
    const int r = plan.index();
    tsdb::Store store;
    load_first_half(store);
    portal::QueryEngineOptions eo;
    eo.workers = 1;
    portal::QueryEngine engine(jobs_table, &store, eo);
    std::uint64_t round_failed = 0;
    const std::uint64_t ops = s.plan.size() + kSlices;
    plan.start();
    std::size_t qi = 0;
    for (int k = 0; k < kSlices; ++k) {
      {
        Timed stage(tracer, timers, "stage.queries", static_cast<std::uint64_t>(k) + 1);
        for (std::size_t j = 0; j < kQueriesPerSlice; ++j, ++qi) {
          const auto& p = s.plan[qi];
          Timed call(tracer, timers, "portal.query", qi + 1);
          auto res = engine.execute(p.request);
          const double ms = 1e3 * call.stop();
          latency_ms.push_back(ms);
          kind_ms[p.kind].push_back(ms);
          if (r == 0) {
            reference.push_back(std::move(res));
          } else if (res.status != reference[qi].status ||
                     res.payload != reference[qi].payload) {
            ++round_failed;
            out.fail("round " + std::to_string(r) + " query " +
                     std::to_string(qi) + " differs from round 0");
          }
        }
      }
      Timed stage(tracer, timers, "stage.append", static_cast<std::uint64_t>(k) + 1);
      Timed call(tracer, timers, "tsdb.append", static_cast<std::uint64_t>(k) + 1);
      append_slice(store, k);
      appended_points += s.slice_points[static_cast<std::size_t>(k)];
    }
    plan.stop(ops);
    max_threads = std::max(max_threads, thread_count());

    const auto es = engine.stats();
    hits += static_cast<double>(es.cache_hits);
    lookups += static_cast<double>(es.cache_hits + es.cache_misses);
    rebuilds += static_cast<double>(es.summary_rebuilds);
    evictions += static_cast<double>(es.cache_evictions);
    head_points = static_cast<double>(store.storage_stats().head_points);
    if (store.num_points() != day_points) {
      out.fail("tsdb holds " + std::to_string(store.num_points()) +
               " points after the day's appends");
    }

    out.attempted += ops;
    out.failed += round_failed;
  }

  // ---- checks: every round-0 payload against the archive, then a sample
  // rerun cold on a cache-off engine at the same store states ----
  std::uint64_t power_failed = 0;
  std::uint64_t other_failed = 0;
  for (std::size_t i = 0; i < s.plan.size(); ++i) {
    const auto why = check_query(s, s.plan[i], reference[i], matched);
    if (why.empty()) continue;
    if (s.plan[i].kind == Kind::Power) {
      ++power_failed;
    } else {
      ++other_failed;
      out.fail(std::string(kKindNames[static_cast<int>(s.plan[i].kind)]) +
               " query " + std::to_string(i) + ": " + why);
    }
  }
  // Every round replays the same queries on the same states, so round 0's
  // failures repeat in every round.
  out.failed += static_cast<std::uint64_t>(plan.rounds()) *
                (power_failed + other_failed);
  {
    tsdb::Store store;
    load_first_half(store);
    portal::QueryEngineOptions eo;
    eo.workers = 1;
    eo.cache_entries = 0;
    portal::QueryEngine cold(jobs_table, &store, eo);
    max_threads = std::max(max_threads, thread_count());
    std::size_t qi = 0;
    for (int k = 0; k < kSlices; ++k) {
      for (std::size_t j = 0; j < kQueriesPerSlice; ++j, ++qi) {
        if (qi % 7 != 3) continue;
        const auto res = cold.execute(s.plan[qi].request);
        if (res.status != reference[qi].status ||
            res.payload != reference[qi].payload) {
          out.fail("query " + std::to_string(qi) +
                   " differs when rerun with the cache off");
        }
      }
      append_slice(store, k);
    }
  }
  std::fprintf(stderr, "portal_live: %llu power-panel queries per round fail "
                       "their rate check\n",
               static_cast<unsigned long long>(power_failed));

  auto& L = out.layer;
  const double n = plan.rounds();
  L["query_p50_ms"] = median(latency_ms);
  L["query_p99_ms"] = percentile(latency_ms, 0.99);
  L["queries_per_s"] =
      static_cast<double>(latency_ms.size()) / timers["portal.query"];
  L["append_mpoints_per_s"] =
      static_cast<double>(appended_points) / 1e6 / timers["tsdb.append"];
  for (const auto& [kind, v] : kind_ms) {
    L[std::string("portal.") + kKindNames[static_cast<int>(kind)] + "_ms"] =
        median(v);
  }
  L["portal.cache_hit_rate"] = lookups > 0 ? hits / lookups : 0.0;
  L["portal.summary_rebuilds"] = rebuilds / n;
  L["portal.cache_evictions"] = evictions / n;
  L["tsdb.head_points"] = head_points;
  L["tsdb.append_s"] = timers["tsdb.append"] / n;
  L["threads.max"] = max_threads;
}

}  // namespace e2e
