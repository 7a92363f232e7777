// Computes the per-job metrics of paper Table I (plus the RAPL power
// breakdown and the procfs memory high-water mark the new version adds).
//
// Two metric families (section IV-A):
//  * "Average" metrics are Average Rates of Change: the relevant counter's
//    delta is accumulated over the job's lifetime on each node (per
//    interval by util::counter_delta: narrow hardware counters are
//    wrap-corrected, an interval spanning a reset adds 0), divided by
//    elapsed time, then averaged over nodes. Because the counters are
//    cumulative this is insensitive to the sampling interval.
//  * "Maximum" metrics take per-interval deltas, sum them across nodes per
//    interval, and report the maximum interval rate — an approximation to
//    the peak instantaneous rate.
// Ratios (cpi, MDCWait, VecPercent, ...) are formed from the averaged
// quantities, not averaged per interval.
//
// Table I's "idle" wording conflicts with the body text; we implement the
// prose definition: idle = min-node CPU_Usage / max-node CPU_Usage, and
// catastrophe = min-interval / max-interval of the node-summed CPU usage,
// both in [0, 1] with small values flagging imbalance.
#pragma once

#include <cmath>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/jobmap.hpp"

namespace tacc::pipeline {

/// All computed metrics, keyed by the Table I labels. Metrics whose device
/// data is absent (no Lustre client, unknown architecture, no Phi, 4-PMC
/// topology without LLC counters) are NaN.
struct JobMetrics {
  // Lustre
  double MetaDataRate = nan("");    // max MDS op rate (reqs/s, node-summed)
  double MDCReqs = nan("");         // avg MDS op rate (reqs/s per node)
  double OSCReqs = nan("");         // avg OSS op rate (reqs/s per node)
  double MDCWait = nan("");         // avg us per MDS op
  double OSCWait = nan("");         // avg us per OSS op
  double LLiteOpenClose = nan("");  // avg opens+closes per second per node
  double LnetAveBW = nan("");       // avg Lustre MB/s per node
  double LnetMaxBW = nan("");       // max Lustre MB/s (node-summed)
  // Network
  double InternodeIBAveBW = nan("");  // avg MPI MB/s per node (IB minus LNET)
  double InternodeIBMaxBW = nan("");  // max MPI MB/s (node-summed)
  double Packetsize = nan("");        // avg IB packet size (bytes)
  double Packetrate = nan("");        // avg IB packets/s per node
  double GigEBW = nan("");            // avg Ethernet MB/s per node
  // Processor
  double Load_All = nan("");      // avg loads/s per core
  double Load_L1Hits = nan("");   // avg L1 hits/s per core
  double Load_L2Hits = nan("");   // avg L2 hits/s per core
  double Load_LLCHits = nan("");  // avg LLC hits/s per core
  double cpi = nan("");           // cycles per instruction
  double cpld = nan("");          // cycles per L1D load
  double flops = nan("");         // avg GFLOP/s per node
  double VecPercent = nan("");    // vector FP / all FP instructions [0,1]
  double mbw = nan("");           // avg DRAM GB/s per node
  // Energy (RAPL; new in this version)
  double PkgWatts = nan("");   // avg package power per node (W)
  double CoreWatts = nan("");  // avg core (PP0) power per node (W)
  double DramWatts = nan("");  // avg DRAM power per node (W)
  // OS
  double MemUsage = nan("");     // max node memory used (GB), snapshots
  double MemHWM = nan("");       // procfs per-process high-water mark (GB)
  double CPU_Usage = nan("");    // avg fraction of time in user space
  double idle = nan("");         // min/max CPU_Usage over nodes [0,1]
  double catastrophe = nan("");  // min/max CPU usage over time [0,1]
  double RampUp = nan("");       // first-interval / peak-interval CPU usage;
                                 //  small = slow start (compile step)
  double TailDrop = nan("");     // last-interval / peak-interval CPU usage;
                                 //  small = mid-run death (failure)
  double MIC_Usage = nan("");    // avg Phi utilization [0,1]

  /// The metrics as (Table I label -> value) for DB ingest / display.
  std::map<std::string, double> as_map() const;

  /// Every metric as (Table I label, member), in labels() order.
  static std::span<const std::pair<const char*, double JobMetrics::*>>
  fields();

  /// Ordered Table I labels (Lustre, Network, Processor, Energy, OS).
  static const std::vector<std::string>& labels();
};

/// Computes all metrics for a job. Requires at least two records on at
/// least one host; otherwise everything stays NaN.
JobMetrics compute_metrics(const JobData& data);

/// Per-node, per-interval series for the six panels of the paper's Fig. 5
/// job detail plots: Gigaflops, memory bandwidth (GB/s), memory usage (GB),
/// Lustre bandwidth (MB/s), internode InfiniBand traffic (MB/s), and CPU
/// user fraction.
struct NodeSeries {
  std::string hostname;
  std::vector<double> times;  // interval midpoints, seconds since epoch
  std::vector<double> gflops;
  std::vector<double> mem_bw_gbps;
  std::vector<double> mem_used_gb;
  std::vector<double> lustre_mbps;
  std::vector<double> ib_mpi_mbps;
  std::vector<double> cpu_user;
};

/// Extracts the Fig. 5 panel series for every node of a job.
std::vector<NodeSeries> job_timeseries(const JobData& data);

}  // namespace tacc::pipeline
