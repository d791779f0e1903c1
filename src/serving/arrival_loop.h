// RunInterleavedArrivals — the one open-loop arrival driver behind every
// serving run: ClusterSimulation::Run, with one participant per host
// (private or shared device stacks alike; a HostSimulation is the
// one-participant case).
//
//   - each participant runs an independent Poisson process at `qps_each`
//     for its own `queries`, seeded by its own arrival_seed, all
//     interleaved on one EventLoop (so concurrent hosts' reads meet in a
//     shared stack's BatchSchedulers);
//   - an arrival draws the next query from its SOURCE participant's
//     workload, then `route(source, query)` picks the participant whose
//     engine serves it (identity for one host or kLocal; user-sticky or
//     random for a routed cluster);
//   - stats are attributed to the SERVING participant: `served` counts
//     arrivals entering its engine, `completed` and `latencies` its OK
//     completions.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/event_loop.h"
#include "common/histogram.h"
#include "serving/inference_engine.h"
#include "trace/trace_gen.h"

namespace sdm {

struct ArrivalParticipant {
  InferenceEngine* engine = nullptr;
  QueryGenerator* workload = nullptr;
  /// Seeds this participant's independent Poisson arrival process.
  uint64_t arrival_seed = 0;
  uint64_t queries = 0;  ///< arrivals this participant draws
};

struct ArrivalStats {
  Histogram latencies;
  uint64_t served = 0;     ///< arrivals that entered this participant's engine
  uint64_t completed = 0;  ///< queries that finished OK there
  /// Of `completed`, queries whose pooled output is missing rows (some
  /// embedding IO exhausted retries or was shed; graceful degradation).
  uint64_t degraded = 0;
};

/// Maps (source participant, drawn query) to the serving participant.
using ArrivalRoute = std::function<size_t(size_t source, const Query& query)>;

/// Schedules every participant's arrivals, runs the loop to idle, and
/// returns per-participant stats (indexed like `participants`).
std::vector<ArrivalStats> RunInterleavedArrivals(
    EventLoop& loop, std::span<const ArrivalParticipant> participants,
    double qps_each, const ArrivalRoute& route);

}  // namespace sdm
