// Ingests the central archive into the two analysis stores:
//   * relational (the paper's PostgreSQL step): one row per job in the
//     "jobs" table, with the metadata columns the portal's job list shows
//     and one Real column per Table I metric. Flags are stored as a
//     comma-joined text column.
//   * time-series (the paper's OpenTSDB step, section VI-A): every raw
//     counter of every host, tagged by (host, device type, device name,
//     event name), batched per series and fanned out across a thread pool.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "db/table.hpp"
#include "pipeline/flags.hpp"
#include "pipeline/metrics.hpp"
#include "transport/archive.hpp"
#include "tsdb/store.hpp"
#include "util/arena.hpp"
#include "util/simd_scan.hpp"
#include "util/thread_pool.hpp"
#include "workload/jobs.hpp"

namespace tacc::pipeline {

/// Name of the jobs table.
inline constexpr const char* kJobsTable = "jobs";

/// Creates the jobs table (metadata + metric columns) with indexes on
/// exe, user, and queue. Throws if it already exists.
db::Table& create_jobs_table(db::Database& database);

/// Inserts one job row. NaN metrics become SQL NULLs.
db::RowId ingest_job(db::Table& jobs, const workload::AccountingRecord& acct,
                     const JobMetrics& metrics,
                     const std::vector<Flag>& flags);

/// Convenience: extract + compute + flag + ingest a batch of jobs from the
/// central archive. Returns the number of jobs with at least one record.
/// NOT thread-safe: call from one thread per (database, archive) pair.
std::size_t ingest_from_archive(
    db::Database& database, const transport::RawArchive& archive,
    const std::vector<workload::AccountingRecord>& accounting);

class PipelineMetrics;  // pipeline/pipeline_metrics.hpp

/// Tuning knobs for the archive -> time-series load.
struct TsdbIngestOptions {
  /// Points staged per worker before a bulk flush via Store::put_batches.
  /// Bigger batches amortize shard locking; smaller ones bound worker
  /// memory. Default: 4096.
  std::size_t batch_points = 4096;
  /// Prefix for generated metric names: <prefix>.<type>.<event>.
  std::string metric_prefix = "taccstats";
  /// Seal every series after the load (Store::seal_all), compressing the
  /// archive into immutable blocks and enabling summary skips and rollup
  /// fast paths on the read side. Disable only when more appends to the
  /// same series follow immediately (sealing then just cuts blocks short).
  bool seal = true;
  /// After a bulk load into a durable store, call Store::flush(): the
  /// sealed blocks move into a segment file and the WALs rotate down to
  /// small checkpoints, so the load is served from mmap-backed blocks and
  /// survives a crash without replay. No effect on in-memory stores.
  bool flush = false;
  /// Put-stage threads for the serial (pool == nullptr) pipeline: 0 calls
  /// Store::put_batches inline with batch building; N >= 1 hands flushed
  /// batch groups to N consumer threads over bounded ring queues, so
  /// decode/build overlaps store insertion. Ignored when hosts are
  /// already fanned out across a thread pool. Any value produces stores
  /// with byte-identical query results (put order is irrelevant to the
  /// store).
  std::size_t stage_threads = 0;
  /// Capacity, in flushed batch groups, of each stage ring queue. Bounds
  /// producer run-ahead (memory) when the store is the slower stage.
  std::size_t queue_depth = 8;
  /// SIMD mode for text-ingest tokenization (ingest_text_tsdb); Auto
  /// defers to the TACC_SIMD env knob, then CPU detection.
  util::ScanMode scan = util::ScanMode::Auto;
  /// Arena slab size for the text-ingest record parser.
  std::size_t arena_chunk = util::Arena::kDefaultChunkBytes;
  /// Per-stage counters (pipeline/pipeline_metrics.hpp). nullptr falls
  /// back to the TACC_PROFILE-gated process-wide instance, which is
  /// itself null (counters off) unless that env knob is set.
  PipelineMetrics* metrics = nullptr;
};

struct TsdbIngestStats {
  std::size_t hosts = 0;
  std::size_t series = 0;
  std::size_t points = 0;
};

/// Loads every host's raw counter stream from the archive into the
/// time-series store: one series per (schema type, device, event) per
/// host — the paper's OpenTSDB tag tuple — with the metric named
/// <prefix>.<type>.<event> and tags {host, type, device, event}, plus
/// {width} for counters narrower than 64 bits (what Query::rate reads). Values of
/// the same event across a host's devices stay separate series, so any
/// tag subset can still be aggregated at query time.
///
/// When `pool` is non-null, hosts are fanned out across its workers; each
/// worker stages points in a local per-series buffer and flushes whole
/// batches with Store::put_batches, so workers never contend on a series
/// (series are keyed by host) and touch each shard lock only on flush.
///
/// Thread-safety: safe to call while other threads put() into the same
/// store; the archive is only read (RawArchive is internally locked). The
/// result is deterministic: serial (pool == nullptr) and parallel runs
/// produce stores with byte-identical query results.
TsdbIngestStats ingest_archive_tsdb(tsdb::Store& store,
                                    const transport::RawArchive& archive,
                                    util::ThreadPool* pool = nullptr,
                                    const TsdbIngestOptions& options = {});

/// Loads one serialized host log (header + records, HostLog::serialize
/// format) straight into the time-series store without materializing
/// Records: the body streams through collect::RecordViewParser (SIMD
/// tokenization, arena-backed values) directly into staged series
/// batches. Series naming/tagging matches ingest_archive_tsdb, so a store
/// loaded from text and one loaded from the equivalent archived log have
/// byte-identical query results — as do runs with any scan mode or
/// stage_threads value.
///
/// Throws std::invalid_argument on malformed input (same messages as
/// HostLog::parse). Points flushed before the bad line are already in the
/// store; points staged since the last batch_points flush (the stage only
/// flushes at record boundaries once the threshold is crossed) are
/// dropped, not stored.
TsdbIngestStats ingest_text_tsdb(tsdb::Store& store, std::string_view text,
                                 const TsdbIngestOptions& options = {});

}  // namespace tacc::pipeline
