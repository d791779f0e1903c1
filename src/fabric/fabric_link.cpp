#include "fabric/fabric_link.h"

#include <cassert>
#include <utility>

#include "fault/fault_injector.h"

namespace sdm {

FabricLink::FabricLink(FabricLinkConfig config, EventLoop* loop)
    : config_(config), loop_(loop) {
  assert(loop != nullptr);
  assert(config.latency >= SimDuration(0));
  assert(config.bandwidth_bytes_per_sec >= 0);
}

void FabricLink::set_obs(Observability* obs, const std::string& name) {
  obs_transfers_ = ObsCounter(obs, name + "fabric/transfers");
  obs_bytes_ = ObsCounter(obs, name + "fabric/bytes");
  obs_dropped_ = ObsCounter(obs, name + "fabric/dropped");
  obs_deferred_ = ObsCounter(obs, name + "fabric/deferred");
  obs_spans_ = ObsSpans(obs);
  if (obs_spans_ != nullptr) {
    std::string process = name;
    if (!process.empty() && process.back() == '/') process.pop_back();
    obs_track_ = obs_spans_->Track(process, "fabric");
  }
}

void FabricLink::Request(Bytes payload, EventLoop::Callback deliver) {
  ++stats_.requests;
  stats_.request_bytes += payload;
  if (obs_transfers_ != nullptr) {
    obs_transfers_->Add(loop_->Now());
    obs_bytes_->Add(loop_->Now(), payload);
  }
  Traverse(request_dir_, payload, std::move(deliver), "fabric.request");
}

void FabricLink::Response(Bytes payload, EventLoop::Callback deliver) {
  ++stats_.responses;
  stats_.response_bytes += payload;
  if (obs_transfers_ != nullptr) {
    obs_transfers_->Add(loop_->Now());
    obs_bytes_->Add(loop_->Now(), payload);
  }
  Traverse(response_dir_, payload, std::move(deliver), "fabric.response");
}

void FabricLink::Traverse(Direction& dir, Bytes payload, EventLoop::Callback deliver,
                          const char* span_name) {
  if (config_.instant()) {
    // Synchronous delivery keeps event ordering identical to no fabric at
    // all — the zero-latency byte-identity the cluster tests pin.
    deliver();
    return;
  }
  if (injector_ != nullptr && injector_->DrawFabricDrop(device_index_)) {
    // The transfer vanishes: `deliver` is discarded, so whatever waited on
    // it sees silence (and is rescued, if at all, by an IO deadline).
    // Buffers held by the dropped closure free through its captures.
    ++stats_.dropped;
    if (obs_dropped_ != nullptr) obs_dropped_->Add(loop_->Now());
    if (obs_spans_ != nullptr) obs_spans_->Instant(obs_track_, "fabric.drop", loop_->Now());
    return;
  }
  const SimTime now = loop_->Now();
  SimDuration serialization{0};
  if (config_.bandwidth_bytes_per_sec > 0) {
    serialization =
        Seconds(static_cast<double>(payload) / config_.bandwidth_bytes_per_sec);
  }
  SimTime start = now;
  if (config_.queueing && dir.busy_until > start) start = dir.busy_until;
  if (injector_ != nullptr) {
    // Partition: nothing crosses until the window heals; the transfer
    // queues (store-and-forward) rather than being lost.
    const SimTime deferred = injector_->DeferFabricTransfer(device_index_, start);
    if (deferred > start) {
      ++stats_.partition_deferred;
      if (obs_deferred_ != nullptr) obs_deferred_->Add(now);
      start = deferred;
    }
  }
  stats_.queue_time += start - now;
  dir.busy_until = start + serialization;
  const SimTime arrival = start + serialization + config_.latency;
  if (obs_spans_ != nullptr) {
    obs_spans_->Span(obs_track_, span_name, now, arrival,
                     "{\"bytes\":" + std::to_string(payload) + "}");
  }
  loop_->ScheduleAt(arrival, std::move(deliver));
}

}  // namespace sdm
