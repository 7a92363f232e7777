#include "pipeline/ingest.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collect/rawview.hpp"
#include "pipeline/pipeline_metrics.hpp"
#include "util/clock.hpp"
#include "util/ring_queue.hpp"

namespace tacc::pipeline {

db::Table& create_jobs_table(db::Database& database) {
  using db::Column;
  using db::ValueType;
  std::vector<Column> columns = {
      {"jobid", ValueType::Int},      {"user", ValueType::Text},
      {"account", ValueType::Text},
      {"jobname", ValueType::Text},   {"exe", ValueType::Text},
      {"queue", ValueType::Text},     {"status", ValueType::Text},
      {"nodes", ValueType::Int},      {"wayness", ValueType::Int},
      {"submit", ValueType::Int},     {"start", ValueType::Int},
      {"end", ValueType::Int},        {"runtime", ValueType::Real},
      {"queue_wait", ValueType::Real}, {"node_hours", ValueType::Real},
      {"flags", ValueType::Text},
  };
  for (const auto& label : JobMetrics::labels()) {
    columns.push_back({label, ValueType::Real});
  }
  auto& table = database.create_table(kJobsTable, std::move(columns));
  table.create_index("exe");
  table.create_index("user");
  table.create_index("queue");
  return table;
}

db::RowId ingest_job(db::Table& jobs, const workload::AccountingRecord& acct,
                     const JobMetrics& metrics,
                     const std::vector<Flag>& flags) {
  const double runtime_s = util::to_seconds(acct.end_time - acct.start_time);
  const double wait_s = util::to_seconds(acct.start_time - acct.submit_time);
  db::Row row = {
      acct.jobid,
      acct.user,
      acct.account,
      acct.jobname,
      acct.exe,
      acct.queue,
      acct.status,
      acct.nodes,
      acct.wayness,
      acct.submit_time / util::kSecond,
      acct.start_time / util::kSecond,
      acct.end_time / util::kSecond,
      runtime_s,
      wait_s,
      runtime_s / 3600.0 * acct.nodes,
      flag_names(flags),
  };
  const auto values = metrics.as_map();
  for (const auto& label : JobMetrics::labels()) {
    const double v = values.at(label);
    if (std::isnan(v)) {
      row.emplace_back();  // NULL
    } else {
      row.emplace_back(v);
    }
  }
  return jobs.insert(std::move(row));
}

std::size_t ingest_from_archive(
    db::Database& database, const transport::RawArchive& archive,
    const std::vector<workload::AccountingRecord>& accounting) {
  auto& jobs = database.has_table(kJobsTable)
                   ? database.table(kJobsTable)
                   : create_jobs_table(database);
  std::size_t ingested = 0;
  for (const auto& acct : accounting) {
    const JobData data = extract_job(archive, acct);
    if (data.hosts.empty()) continue;
    const JobMetrics metrics = compute_metrics(data);
    const auto flags = evaluate_flags(acct, metrics);
    ingest_job(jobs, acct, metrics, flags);
    ++ingested;
  }
  return ingested;
}

namespace {

constexpr std::uint32_t kNoBatch = 0xffffffffu;

/// Per-producer staging area: series batches for one host, flushed to the
/// store (or handed to a put stage) whenever `staged_points` crosses the
/// batch threshold.
struct Stage {
  std::vector<tsdb::SeriesBatch> batches;
  // (type \1 device) -> per-event batch slots: slot i holds the batch
  // index for schema event i, kNoBatch until its first point. One hash
  // lookup per data row instead of one per point.
  // Determinism audit (DT002): `index` is lookup-only (find/emplace) and
  // never iterated — output order comes from `batches`, which appends in
  // first-point order, i.e. the deterministic order of the parsed raw
  // log. The store then re-keys every batch under Shard::metrics (an
  // ordered std::map), so archive bytes never see this container's bucket
  // order.
  std::unordered_map<std::string, std::vector<std::uint32_t>> index;
  std::size_t staged_points = 0;
  std::string key;  // reused lookup scratch

  void flush(tsdb::Store& store) {
    if (staged_points == 0) return;
    store.put_batches(batches);
    for (auto& b : batches) b.points.clear();
    staged_points = 0;
  }
};

/// Stages every (event, value) of one data block. `values` beyond the
/// schema arity are ignored; missing trailing values stage nothing (so a
/// series is only ever created by an actual point).
void stage_block(Stage& stage, std::string_view host,
                 const TsdbIngestOptions& options, std::string_view type,
                 std::string_view device, const collect::Schema& schema,
                 std::span<const std::uint64_t> values, util::SimTime time) {
  const std::size_t n = std::min(values.size(), schema.size());
  if (n == 0) return;
  std::string& key = stage.key;
  key.assign(type);
  key += '\1';
  key += device;
  auto it = stage.index.find(key);
  if (it == stage.index.end()) {
    it = stage.index
             .emplace(key, std::vector<std::uint32_t>(schema.size(), kNoBatch))
             .first;
  }
  std::vector<std::uint32_t>& slots = it->second;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t b = slots[i];
    if (b == kNoBatch) {
      const std::string& event = schema.entry(i).key;
      tsdb::SeriesBatch batch;
      batch.metric.reserve(options.metric_prefix.size() + type.size() +
                           event.size() + 2);
      batch.metric += options.metric_prefix;
      batch.metric += '.';
      batch.metric += type;
      batch.metric += '.';
      batch.metric += event;
      batch.tags = {{"host", std::string(host)},
                    {"type", std::string(type)},
                    {"device", std::string(device)},
                    {"event", event}};
      // The counter width a rate query needs to tell a wrap from a reset.
      if (const int width = schema.entry(i).width_bits; width < 64) {
        batch.tags.emplace("width", std::to_string(width));
      }
      b = static_cast<std::uint32_t>(stage.batches.size());
      stage.batches.push_back(std::move(batch));
      slots[i] = b;
    }
    stage.batches[b].points.push_back(
        {time, static_cast<double>(values[i])});
    ++stage.staged_points;
  }
}

using BatchGroup = std::vector<tsdb::SeriesBatch>;

/// Moves a stage's non-empty batches into a self-contained group (metric
/// and tags copied, points moved), leaving the stage primed for reuse.
BatchGroup make_group(Stage& stage) {
  BatchGroup group;
  for (auto& b : stage.batches) {
    if (b.points.empty()) continue;
    group.push_back(tsdb::SeriesBatch{b.metric, b.tags, std::move(b.points)});
    b.points.clear();
  }
  stage.staged_points = 0;
  return group;
}

/// The put side of the pipeline. With zero threads, emit() flushes the
/// stage to the store inline; with N >= 1, emit() round-robins batch
/// groups onto N SPSC ring queues, each drained by a consumer thread
/// calling Store::put_batches, so building the next batches overlaps
/// store insertion. A consumer that throws keeps draining (so the
/// producer can never block forever on a full queue) and finish()
/// rethrows the first error after join.
class PutStage {
 public:
  PutStage(tsdb::Store& store, const TsdbIngestOptions& options,
           PipelineMetrics* metrics, std::size_t threads)
      : store_(store), metrics_(metrics) {
    errors_.resize(threads);
    queues_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      queues_.push_back(
          std::make_unique<util::RingQueue<BatchGroup>>(options.queue_depth));
    }
    consumers_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      consumers_.emplace_back([this, t] { run_consumer(t); });
    }
  }

  ~PutStage() {
    // Unwind path (producer threw before finish()): release the
    // consumers, which drain and exit; errors are dropped in favor of the
    // in-flight exception.
    for (auto& q : queues_) q->close();
    for (auto& c : consumers_) {
      if (c.joinable()) c.join();
    }
  }

  /// Flushes or enqueues the stage's staged points (no-op when empty).
  void emit(Stage& stage) {
    if (queues_.empty()) {
      if (stage.staged_points == 0) return;
      if (metrics_ != nullptr) {
        util::WallTimer timer;
        stage.flush(store_);
        const auto ns = static_cast<std::uint64_t>(timer.elapsed_ns());
        metrics_->add_put_time_ns(ns);
        metrics_->add_batches(1);
        emit_ns_ += ns;
      } else {
        stage.flush(store_);
      }
      return;
    }
    BatchGroup group = make_group(stage);
    if (group.empty()) return;
    util::RingQueue<BatchGroup>& q = *queues_[next_++ % queues_.size()];
    if (!q.try_push(std::move(group))) {
      if (metrics_ != nullptr) {
        util::WallTimer timer;
        q.push(std::move(group));
        const auto ns = static_cast<std::uint64_t>(timer.elapsed_ns());
        metrics_->add_queue_wait_ns(ns);
        emit_ns_ += ns;
      } else {
        q.push(std::move(group));
      }
    }
    if (metrics_ != nullptr) metrics_->add_batches(1);
  }

  /// Closes the queues, joins the consumers, and rethrows the first
  /// consumer error (if any). Call exactly once when done producing.
  void finish() {
    for (auto& q : queues_) q->close();
    for (auto& c : consumers_) c.join();
    consumers_.clear();
    queues_.clear();
    for (auto& e : errors_) {
      if (e) std::rethrow_exception(e);
    }
  }

  /// Producer-side nanoseconds spent inside emit() waiting on the store
  /// or the queues (only tracked when metrics are on). Lets callers
  /// compute pure build time as wall time minus this.
  std::uint64_t emit_ns() const noexcept { return emit_ns_; }

 private:
  void run_consumer(std::size_t t) {
    util::RingQueue<BatchGroup>& q = *queues_[t];
    BatchGroup group;
    for (;;) {
      bool got;
      if (metrics_ != nullptr) {
        util::WallTimer timer;
        got = q.pop(group);
        metrics_->add_queue_wait_ns(
            static_cast<std::uint64_t>(timer.elapsed_ns()));
      } else {
        got = q.pop(group);
      }
      if (!got) return;
      if (errors_[t]) {
        group.clear();  // drain mode after a failure
        continue;
      }
      try {
        if (metrics_ != nullptr) {
          util::WallTimer timer;
          store_.put_batches(group);
          metrics_->add_put_time_ns(
              static_cast<std::uint64_t>(timer.elapsed_ns()));
        } else {
          store_.put_batches(group);
        }
      } catch (...) {
        errors_[t] = std::current_exception();
      }
    }
  }

  tsdb::Store& store_;
  PipelineMetrics* metrics_;
  std::vector<std::unique_ptr<util::RingQueue<BatchGroup>>> queues_;
  std::vector<std::thread> consumers_;
  std::vector<std::exception_ptr> errors_;  // slot t owned by consumer t
  std::size_t next_ = 0;                    // round-robin cursor
  std::uint64_t emit_ns_ = 0;
};

}  // namespace

TsdbIngestStats ingest_archive_tsdb(tsdb::Store& store,
                                    const transport::RawArchive& archive,
                                    util::ThreadPool* pool,
                                    const TsdbIngestOptions& options) {
  const auto hosts = archive.hosts();
  PipelineMetrics* metrics =
      options.metrics != nullptr ? options.metrics : profile_metrics();
  std::atomic<std::size_t> total_series{0};
  std::atomic<std::size_t> total_points{0};

  const auto build_log = [&](const collect::HostLog& log,
                             const std::string& host, PutStage& put) {
    util::WallTimer host_timer;
    const std::uint64_t emit_ns0 = put.emit_ns();
    Stage stage;
    std::size_t host_points = 0;
    // One-entry schema memo: a record's blocks run through devices of the
    // same type back to back, so the indexed lookup is rarely needed.
    std::string_view memo_type;
    const collect::Schema* memo_schema = nullptr;
    bool have_memo = false;
    for (const auto& rec : log.records) {
      for (const auto& block : rec.blocks) {
        const collect::Schema* schema;
        if (have_memo && block.type == memo_type) {
          schema = memo_schema;
        } else {
          schema = log.schema_for(block.type);
          memo_type = block.type;
          memo_schema = schema;
          have_memo = true;
        }
        if (schema == nullptr) continue;
        stage_block(stage, host, options, block.type, block.device, *schema,
                    block.values, rec.time);
      }
      if (stage.staged_points >= options.batch_points) {
        host_points += stage.staged_points;
        put.emit(stage);
      }
    }
    host_points += stage.staged_points;
    put.emit(stage);
    total_points.fetch_add(host_points, std::memory_order_relaxed);
    total_series.fetch_add(stage.batches.size(), std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->add_records(log.records.size());
      metrics->add_points(host_points);
      const auto total_ns = static_cast<std::uint64_t>(host_timer.elapsed_ns());
      const std::uint64_t emit_ns = put.emit_ns() - emit_ns0;
      metrics->add_build_time_ns(total_ns > emit_ns ? total_ns - emit_ns : 0);
    }
  };

  if (pool != nullptr && hosts.size() > 1) {
    // Parallel: workers already overlap store puts with each other, so
    // each takes a snapshot copy (no archive lock held while putting) and
    // flushes inline.
    pool->parallel_for(hosts.size(), [&](std::size_t hi) {
      const collect::HostLog log = archive.log(hosts[hi]);
      PutStage put(store, options, metrics, 0);
      build_log(log, hosts[hi], put);
    });
  } else {
    // Serial: read each host's log in place under the archive lock (no
    // deep copy). With stage_threads > 0 the store puts happen on the
    // consumer threads, outside the archive lock.
    PutStage put(store, options, metrics, options.stage_threads);
    for (const auto& host : hosts) {
      archive.visit_log(host, [&](const collect::HostLog& log) {
        build_log(log, host, put);
      });
    }
    put.finish();
  }
  if (options.seal) store.seal_all();
  if (options.flush) store.flush();

  TsdbIngestStats stats;
  stats.hosts = hosts.size();
  stats.series = total_series.load();
  stats.points = total_points.load();
  return stats;
}

TsdbIngestStats ingest_text_tsdb(tsdb::Store& store, std::string_view text,
                                 const TsdbIngestOptions& options) {
  PipelineMetrics* metrics =
      options.metrics != nullptr ? options.metrics : profile_metrics();
  collect::HostLog header;
  const std::size_t body_start = header.parse_header(text);

  collect::RecordViewParser parser(
      collect::RecordViewParser::Options{options.scan, options.arena_chunk});
  PutStage put(store, options, metrics, options.stage_threads);
  Stage stage;
  std::size_t points = 0;

  struct TextSink {
    Stage& stage;
    PutStage& put;
    const TsdbIngestOptions& options;
    const std::string& host;
    std::size_t& points;
    util::SimTime time = 0;

    void record(const collect::RecordView& r) {
      if (stage.staged_points >= options.batch_points) {
        points += stage.staged_points;
        put.emit(stage);
      }
      time = r.time;
    }
    void block(const collect::RawBlockView& b) {
      stage_block(stage, host, options, b.type, b.device, *b.schema,
                  b.values, time);
    }
  } sink{stage, put, options, header.hostname, points};

  util::WallTimer parse_timer;
  const std::uint64_t emit_ns0 = put.emit_ns();
  const auto body = parser.parse_body(header, text.substr(body_start), sink);
  points += stage.staged_points;
  put.emit(stage);
  // Snapshot the parse/build clock before finish(): the join wait is the
  // consumers catching up, not producer time.
  const auto total_ns = static_cast<std::uint64_t>(parse_timer.elapsed_ns());
  const std::uint64_t emit_ns = put.emit_ns() - emit_ns0;
  put.finish();
  if (options.seal) store.seal_all();
  if (options.flush) store.flush();

  if (metrics != nullptr) {
    metrics->add_bytes_read(body.bytes);
    metrics->add_lines(body.lines);
    metrics->add_records(body.records);
    metrics->add_points(points);
    metrics->add_arena_resizes(body.arena_resizes);
    metrics->add_allocations(body.allocations);
    metrics->add_parse_time_ns(total_ns > emit_ns ? total_ns - emit_ns : 0);
  }

  TsdbIngestStats stats;
  stats.hosts = 1;
  stats.series = stage.batches.size();
  stats.points = points;
  return stats;
}

}  // namespace tacc::pipeline
