// FabricAttachedService — a SharedDeviceService on the far side of a fabric
// (ROADMAP "Multi-host queues / disaggregated SM"; the real counterpart of
// the §5.2 ScaleOutModel's analytic remote-embedding penalty).
//
// PR 4's SharedDeviceService let N tenant stores WITHIN one host share a
// device stack. This wraps the same service for N HOSTS of a cluster: the
// device stack lives behind a FabricLink per device port (latency +
// bandwidth + optional per-hop queueing, installed in front of each
// IoEngine submission), and every host attaches exactly like a tenant
// shard. Host attribution rides the tenant machinery unchanged — HostId IS
// the TenantId the fair-share TenantIoShare ledger and the (tenant, table)
// throttle key on, so `cross_tenant_hits` reads as cross-HOST single-flight
// hits: reads one host's queries rode that another host's read paid for.
//
// What the fabric buys over per-host local SM: hosts serving replicas of
// one model content-dedup to ONE extent set (the registry keys on
// name+size+hash, cross-tenant only), so their overlapping hot blocks
// single-flight in the shared per-device BatchSchedulers — the wider the
// fabric RTT holds reads in flight, the more late hosts join them instead
// of reissuing. What it costs: every doorbell and every read payload pays
// the link's latency/serialization. bench_table9_m2_scaleout measures both
// sides against the analytic model.
//
// Table placement happens at load time through the attached stores as
// usual; load-time writes are treated as offline (they do not traverse the
// fabric — only the serving-path IO does).
//
// Single-threaded on one EventLoop like everything it owns; the service
// must outlive every attached host's store.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fabric/fabric_link.h"
#include "tenant/shared_device_service.h"

namespace sdm {

struct FabricServiceConfig {
  /// The remote SM device stack (devices, engines, schedulers, throttle).
  SharedDeviceConfig device;
  /// Fabric hop installed in front of each device's IoEngine. An instant
  /// link (the default) makes the service behave exactly like a local
  /// SharedDeviceService — the byte-identity anchor.
  FabricLinkConfig link;
};

class FabricAttachedService {
 public:
  FabricAttachedService(FabricServiceConfig config, EventLoop* loop);

  FabricAttachedService(const FabricAttachedService&) = delete;
  FabricAttachedService& operator=(const FabricAttachedService&) = delete;

  /// Registers one host and returns its identity on the service — the
  /// TenantId that scopes its throttle keys, scheduler attribution, and
  /// extent-dedup domain (hosts dedup against each OTHER, never against
  /// themselves — exactly the tenant rule).
  TenantId AttachHost(TenantClass cls = TenantClass::kForeground);

  [[nodiscard]] size_t host_count() const { return service_.tenant_count(); }

  /// The inner device stack. Stores attach to it via
  /// SdmStoreConfig::shared_device exactly like tenant shards.
  [[nodiscard]] SharedDeviceService& device_service() { return service_; }
  [[nodiscard]] const FabricLink& link(size_t device) const { return *links_[device]; }

  /// One host's fair-share ledger (lane bus bytes, cross-HOST single-flight
  /// hits), aggregated over every device.
  [[nodiscard]] TenantIoShare host_io_share(TenantId id) const {
    return service_.tenant_io_share(id);
  }

  /// Fabric traffic aggregated over every device link.
  [[nodiscard]] FabricLinkStats fabric_stats() const;

  /// Routes scripted faults to the whole remote stack: media faults to the
  /// devices (via the inner service) and drop/partition windows to each
  /// device's fabric link. Pass nullptr to detach.
  void InstallFaultInjector(FaultInjector* injector);

 private:
  SharedDeviceService service_;
  std::vector<std::unique_ptr<FabricLink>> links_;  ///< one per device port
};

}  // namespace sdm
