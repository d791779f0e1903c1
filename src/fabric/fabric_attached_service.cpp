#include "fabric/fabric_attached_service.h"

#include <cassert>
#include <utility>

namespace sdm {

FabricAttachedService::FabricAttachedService(FabricServiceConfig config, EventLoop* loop)
    : service_(std::move(config.device), loop) {
  assert(loop != nullptr);
  links_.reserve(service_.device_count());
  for (size_t d = 0; d < service_.device_count(); ++d) {
    links_.push_back(std::make_unique<FabricLink>(config.link, loop));
    service_.io_engine(d).set_fabric_link(links_.back().get());
    if (service_.config().obs != nullptr) {
      links_.back()->set_obs(
          service_.config().obs,
          service_.config().obs_prefix + "dev" + std::to_string(d) + "/");
    }
  }
}

TenantId FabricAttachedService::AttachHost(TenantClass cls) {
  return service_.RegisterTenant(cls);
}

void FabricAttachedService::InstallFaultInjector(FaultInjector* injector) {
  service_.InstallFaultInjector(injector);
  for (size_t d = 0; d < links_.size(); ++d) {
    links_[d]->set_fault_injector(injector, static_cast<int>(d));
  }
}

FabricLinkStats FabricAttachedService::fabric_stats() const {
  FabricLinkStats agg;
  for (const auto& link : links_) {
    const FabricLinkStats& one = link->stats();
    agg.requests += one.requests;
    agg.responses += one.responses;
    agg.request_bytes += one.request_bytes;
    agg.response_bytes += one.response_bytes;
    agg.queue_time += one.queue_time;
    agg.dropped += one.dropped;
    agg.partition_deferred += one.partition_deferred;
  }
  return agg;
}

}  // namespace sdm
