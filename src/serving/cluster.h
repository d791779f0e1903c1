// Fleet-level composition: sticky routing, scale-out, multi-tenancy,
// disaggregated SM.
//
// - StickyRouter / ClusterSimulation: queries route user->host by hash, so
//   each host sees a stable user sub-population and higher per-host
//   temporal locality than the global trace (paper Fig. 4c). Random
//   routing is available as the baseline.
// - ClusterSimulation is the one serving driver: N hosts on one EventLoop,
//   each with its own model, FM share and TenantClass (HostSimulation is
//   a cluster of one host). Its SM is either a private device stack per
//   host, or (DisaggregatedConfig) ONE FabricAttachedService every host
//   attaches to, so cross-HOST single-flight of shared hot blocks is
//   actually exercised. With zero fabric knobs the link is instant: that
//   is §5.3's co-location of several models on one host's shared device
//   stack.
// - ScaleOutModel: analytic latency/power for the (Lui et al.) sharded
//   alternative SDM competes against in §5.2.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fabric/fabric_attached_service.h"
#include "obs/observability.h"
#include "serving/host.h"
#include "serving/power_model.h"
#include "serving/run_report.h"

namespace sdm {

enum class RoutingPolicy : uint8_t {
  kUserSticky,  ///< consistent hash of the user id (Fig. 4c affinity)
  kRandom,      ///< per-query draw (the no-affinity baseline)
  /// No redistribution: an arrival is served by the host whose arrival
  /// process drew it. This is the shared-nothing baseline sticky routing
  /// is measured against, and the co-location setup: each host serves its
  /// own model's queries.
  kLocal,
};

/// Maps users to hosts. Sticky = consistent hash; random = per-query draw.
class StickyRouter {
 public:
  StickyRouter(size_t num_hosts, RoutingPolicy policy, uint64_t seed);

  /// Sticky routing is a pure hash of the user id, so routing a query does
  /// not mutate observable router state; only the kRandom baseline draws
  /// from the (mutable) RNG.
  [[nodiscard]] size_t Route(UserId user) const;

  [[nodiscard]] RoutingPolicy policy() const { return policy_; }

 private:
  size_t num_hosts_;
  RoutingPolicy policy_;
  mutable Rng rng_;  ///< used by kRandom only; never drawn on the hash path
};

/// Puts every host's store on ONE fabric-attached device stack instead of
/// a private one (see file header). Fabric shape (latency / bandwidth /
/// queueing) comes from the host config's TuningConfig fabric knobs.
struct DisaggregatedConfig {
  bool enabled = false;
};

/// What one host serves: its model, its FM share (from the host config's
/// FM pool) and the scheduler lane its demand reads ride.
struct HostRole {
  ModelConfig model;
  Bytes fm_capacity = 0;
  TenantClass cls = TenantClass::kForeground;
};

/// A small fleet on one EventLoop. Every host is an SdmStore +
/// InferenceEngine + workload; Run interleaves every host's open-loop
/// Poisson arrivals, with the router deciding which host's engine each
/// arrival enters.
///
/// Seeds: host i's store is seeded `seed ^ Mix64(i + 0x7e0a)` and its
/// workload `workload.seed ^ Mix64(0x7e0a + i)`, except in a cluster of one
/// host (a HostSimulation), whose store and workload keep `seed` and
/// `workload.seed`. Its arrivals are seeded `store seed ^ 0xa11e` on a
/// private stack, and `seed ^ Mix64(i + 1) ^ 0xa11e` on the shared one.
class ClusterSimulation {
 public:
  ClusterSimulation(size_t num_hosts, const HostSimConfig& host_config,
                    RoutingPolicy policy, const DisaggregatedConfig& disaggregated = {});
  /// Every store holds the address of the cluster's loop.
  ClusterSimulation(const ClusterSimulation&) = delete;
  ClusterSimulation& operator=(const ClusterSimulation&) = delete;

  /// Every host serves `model` from the config's FM capacity, in the
  /// foreground lane.
  Status LoadModel(const ModelConfig& model);
  /// Host i serves `roles[i]` (one role per host). Hosts serving equal
  /// models load in one ModelLoader::LoadReplicas pass.
  Status LoadModels(std::span<const HostRole> roles);

  /// Serves exactly `num_queries` arrivals at `total_qps`, split evenly
  /// across the hosts' arrival processes (the first `num_queries % size()`
  /// hosts draw one more). Callable repeatedly; caches stay warm.
  [[nodiscard]] ClusterRunReport Run(double total_qps, uint64_t num_queries);

  [[nodiscard]] bool disaggregated() const { return fabric_ != nullptr; }
  [[nodiscard]] size_t size() const { return hosts_.size(); }
  /// The shared device stack (null with private stacks).
  [[nodiscard]] FabricAttachedService* fabric_service() { return fabric_.get(); }
  /// Host i's store (after a load).
  [[nodiscard]] SdmStore& host_store(size_t i) { return *hosts_[i].store; }

  /// Observability exports (src/obs): non-empty iff tuning.obs.enabled().
  /// The whole cluster exports from its one instance: host i records under
  /// "host<i>/" (its private stack under "host<i>/dev<d>/"), the shared
  /// stack under "svc/".
  [[nodiscard]] std::string ObsMetricsJson();
  [[nodiscard]] std::string ObsTraceJson();
  [[nodiscard]] std::string ObsSloJson();

 protected:
  struct Host {
    std::string model_name;
    std::unique_ptr<SdmStore> store;
    std::unique_ptr<InferenceEngine> engine;
    std::unique_ptr<QueryGenerator> workload;
  };

  /// Host i (after a load), and the loop every host runs on.
  [[nodiscard]] Host& host(size_t i) { return hosts_[i]; }
  [[nodiscard]] EventLoop& loop() { return loop_; }

 private:
  /// What host i's store and workload seeds are XORed with.
  [[nodiscard]] uint64_t HostSalt(size_t i) const;

  HostSimConfig base_config_;
  StickyRouter router_;
  EventLoop loop_;  ///< the one loop every host and device stack run on
  std::unique_ptr<Observability> obs_;  ///< outlives the stacks
  std::unique_ptr<FabricAttachedService> fabric_;
  std::vector<Host> hosts_;
};

/// One serving host: a ClusterSimulation of one host with kLocal routing,
/// seeded straight from the config (see the cluster's seeds above). On top
/// of the cluster it adds the single-host surface Tables 8/9/10 size hosts
/// with: Run returning the host's report, a warmup, a max-QPS search under
/// an SLA, and accessors to the host's store, engine, workload and loop.
class HostSimulation : public ClusterSimulation {
 public:
  explicit HostSimulation(const HostSimConfig& config);

  /// Runs `num_queries` open-loop Poisson arrivals at `target_qps`
  /// (virtual time) and reports. Callable repeatedly; histograms reset per
  /// run, caches stay warm across runs (matching steady-state measurement
  /// after a warmup run). LoadModel must have run.
  [[nodiscard]] HostRunReport Run(double target_qps, uint64_t num_queries);

  /// Convenience: warm the caches with `n` queries (no measurement).
  void Warmup(uint64_t n, double qps = 1000.0);

  /// Finds the highest QPS whose p-latency stays under `sla` (binary
  /// search over Run; `use_p99` picks the percentile — §2.3's p95 vs p99).
  [[nodiscard]] double FindMaxQps(SimDuration sla, bool use_p99, uint64_t queries_per_probe,
                                  double qps_lo = 50, double qps_hi = 100000);

  /// The host's stack (after a load).
  [[nodiscard]] SdmStore& store() { return host_store(0); }
  [[nodiscard]] InferenceEngine& engine() { return *host(0).engine; }
  [[nodiscard]] QueryGenerator& workload() { return *host(0).workload; }
  using ClusterSimulation::loop;
};

// ---------------------------------------------------------------------------
// Scale-out (the alternative SDM displaces, §5.2).
// ---------------------------------------------------------------------------

struct ScaleOutModel {
  /// Main hosts per helper (paper: one HW-S serves ~5 HW-AN).
  double mains_per_helper = 5.0;
  /// Network round trip for a remote embedding fetch.
  SimDuration network_rtt = Micros(100);
  /// Helper-side service time per query's user-embedding work.
  SimDuration helper_service = Micros(200);

  /// Added latency on the user path versus local DRAM.
  [[nodiscard]] SimDuration UserPathLatency() const { return network_rtt + helper_service; }

  /// Fleet scenario for mains at `qps_per_host` with helper overhead.
  [[nodiscard]] FleetScenario Fleet(const std::string& name, double total_qps,
                                    double qps_per_host, double main_power,
                                    double helper_power) const {
    FleetScenario s;
    s.name = name;
    s.total_qps = total_qps;
    s.qps_per_host = qps_per_host;
    s.host_power = main_power;
    s.helpers_per_host = 1.0 / mains_per_helper;
    s.helper_power = helper_power;
    return s;
  }
};

}  // namespace sdm
