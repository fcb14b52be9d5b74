#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// serve_cold / serve_hot: wire traffic into an in-process net::Server
/// over a 2-shard serve::Cluster.
RunResult RunServe(const RunConfig& config, bool hot);

/// pretrain: TURL MLM+MER pretraining rounds (PretrainTrainer::Train).
RunResult RunPretrain(const RunConfig& config);

/// search: RetrievalTask::TopK over a few hundred tables.
RunResult RunSearch(const RunConfig& config);

/// End-to-end metric names (every workload reports all of them).
inline constexpr const char* kSetup = "setup_s";
inline constexpr const char* kLatencyP50 = "latency_p50_us";
inline constexpr const char* kThroughput = "throughput_per_s";
inline constexpr const char* kPeakRss = "peak_rss_mb";

/// Fills the end-to-end map in one place so names and units cannot
/// drift between workloads; the tail goes to the run report's notes.
void SetEndToEnd(RunResult* result, double setup_s, double p50_us,
                 double tail_us, double throughput, double peak_rss_mb);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
