#include "fault/replication_manager.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "device/nvme_device.h"
#include "sched/batch_scheduler.h"

namespace sdm {

namespace {

/// Per-chunk retry budget. The source is sick by definition, so a few
/// redraws (error bursts are probabilistic; stalls defer, not fail) earn
/// their keep — but a hard-down device must not pin the copy loop forever.
constexpr int kChunkRetries = 4;

}  // namespace

ReplicationManager::ReplicationManager(SharedDeviceService* service, EventLoop* loop)
    : service_(service), loop_(loop) {
  assert(service != nullptr);
  assert(loop != nullptr);
  extents_replicated_ = stats_.GetCounter("extents_replicated");
  extents_abandoned_ = stats_.GetCounter("extents_abandoned");
  bytes_copied_ = stats_.GetCounter("bytes_copied");
  chunk_retries_ = stats_.GetCounter("chunk_retries");
}

void ReplicationManager::set_obs(Observability* obs, const std::string& name) {
  extents_replicated_->Tap(ObsCounter(obs, name + "repl/extents_replicated"), loop_);
  extents_abandoned_->Tap(ObsCounter(obs, name + "repl/extents_abandoned"), loop_);
  bytes_copied_->Tap(ObsCounter(obs, name + "repl/bytes_copied"), loop_);
  obs_spans_ = ObsSpans(obs);
  if (obs_spans_ != nullptr) {
    std::string process = name;
    if (!process.empty() && process.back() == '/') process.pop_back();
    obs_track_ = obs_spans_->Track(process, "repl");
  }
}

TenantId ReplicationManager::BillingTenant() {
  if (!tenant_registered_) {
    tenant_ = service_->RegisterTenant(TenantClass::kBackground);
    tenant_registered_ = true;
  }
  return tenant_;
}

void ReplicationManager::OnEndpointSick(size_t endpoint) {
  const TuningConfig& tuning = service_->config().tuning;
  const std::vector<uint64_t> hot = service_->HottestExtentsOn(
      endpoint, static_cast<size_t>(tuning.replication_hot_extents));
  Bytes budget = tuning.replication_byte_budget;
  for (const uint64_t id : hot) {
    const auto span = service_->ExtentInfoFor(id);
    if (!span.has_value() || span->size > budget) continue;  // budget-capped
    budget -= span->size;
    queue_.push_back(CopyJob{id, endpoint});
  }
  Pump();
}

void ReplicationManager::Pump() {
  while (!running_ && !queue_.empty()) {
    job_ = queue_.front();
    queue_.pop_front();
    const auto span = service_->ExtentInfoFor(job_.extent);
    const auto target = service_->FindReplicaTarget(job_.source);
    if (!span.has_value() || !target.ok()) {
      // Single-device stacks (or all-sick peers) have nowhere to heal to;
      // degraded mode stays the backstop.
      extents_abandoned_->Add(1);
      continue;
    }
    const auto loc = service_->AllocateReplica(job_.extent, target.value());
    if (!loc.ok()) {
      extents_abandoned_->Add(1);
      continue;
    }
    span_ = *span;
    replica_ = loc.value();
    running_ = true;
    CopyChunk(0, kChunkRetries);
  }
}

void ReplicationManager::CopyChunk(Bytes done, int attempts_left) {
  if (done >= span_.size) {
    FinishExtent(/*copied=*/true);
    return;
  }
  const TuningConfig& tuning = service_->config().tuning;
  const Bytes begin = span_.offset + done;
  const Bytes len = std::min<Bytes>(tuning.replication_chunk_bytes, span_.size - done);

  // The read rides the SOURCE device's scheduler on the background lane:
  // re-replication pays real queue/media time and parks behind demand like
  // any background tenant — the lane budget is the drain-rate governor.
  BatchScheduler::ReadRequest req;
  req.span_begin = begin;
  req.span_end = begin + len;
  req.first_block = begin / kBlockSize;
  req.last_block = (begin + len - 1) / kBlockSize;
  req.sub_block = false;
  req.kind = BatchScheduler::ReadRequest::Kind::kBackground;
  req.tenant = static_cast<uint32_t>(BillingTenant());
  // Device-to-device maintenance: on a fabric-attached stack the chunk
  // never crosses the host fabric (source and destination both live on the
  // service side).
  req.service_local = true;
  req.cb = [this, done, len, attempts_left](Status status, const uint8_t* /*data*/,
                                            Bytes /*base*/) {
    if (status.ok()) {
      CopyChunk(done + len, kChunkRetries);
      return;
    }
    if (attempts_left > 0) {
      chunk_retries_->Add(1);
      const int attempt_index = kChunkRetries - attempts_left;
      const SimDuration backoff =
          SimDuration(service_->config().tuning.retry_backoff_base.nanos()
                      << std::min(attempt_index, 30));
      loop_->ScheduleAfter(backoff, [this, done, attempts_left] {
        CopyChunk(done, attempts_left - 1);
      });
      return;
    }
    FinishExtent(/*copied=*/false);
  };
  (void)service_->scheduler(span_.device).Enqueue(std::move(req));
}

void ReplicationManager::FinishExtent(bool copied) {
  if (!copied) {
    extents_abandoned_->Add(1);
    if (obs_spans_ != nullptr) {
      obs_spans_->Instant(obs_track_, "extent_abandoned", loop_->Now(),
                          "{\"extent\":" + std::to_string(job_.extent) + "}");
    }
    SDM_LOG_INFO << "replication: abandoned extent " << job_.extent
                 << " (source device " << job_.source << " unreadable)";
    running_ = false;
    Pump();
    return;
  }
  // Stage from the source backing store (ground truth — see file header)
  // and pay the target's streaming write cost; Write re-stamps the target's
  // block checksums over the replica bytes.
  NvmeDevice& src = service_->device(span_.device);
  NvmeDevice& dst = service_->device(replica_.device);
  const auto wrote =
      dst.Write(replica_.offset, src.backing().subspan(span_.offset, span_.size));
  if (!wrote.ok()) {
    extents_abandoned_->Add(1);
    running_ = false;
    Pump();
    return;
  }
  bytes_copied_->Add(span_.size);
  const uint64_t id = job_.extent;
  const SharedDeviceService::ReplicaLocation loc = replica_;
  // Publish only once the write lands: a replica must never be routable
  // before its bytes exist.
  loop_->ScheduleAfter(wrote.value(), [this, id, loc] {
    extents_replicated_->Add(1);
    if (obs_spans_ != nullptr) {
      obs_spans_->Instant(obs_track_, "extent_replicated", loop_->Now(),
                          "{\"extent\":" + std::to_string(id) + "}");
    }
    service_->AddReplicaRoute(id, loc);
    SDM_LOG_INFO << "replication: extent " << id << " replicated to device "
                 << loc.device << " @ " << loc.offset;
    running_ = false;
    Pump();
  });
}

}  // namespace sdm
