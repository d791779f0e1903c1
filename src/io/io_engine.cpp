#include "io/io_engine.h"

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "fabric/fabric_link.h"

namespace sdm {

namespace {

/// Fabric payload of one SQE crossing in a doorbell message (a 64B NVMe
/// submission queue entry; NVMe-oF capsules carry exactly these).
constexpr Bytes kFabricSqeBytes = 64;

}  // namespace

IoEngine::IoEngine(NvmeDevice* device, EventLoop* loop, IoEngineConfig config)
    : device_(device), loop_(loop), config_(config) {
  assert(device != nullptr);
  assert(loop != nullptr);
  assert(config.queue_depth >= 1);
  submitted_ = stats_.GetCounter("submitted");
  completed_ = stats_.GetCounter("completed");
  errors_ = stats_.GetCounter("errors");
  cpu_ns_ = stats_.GetCounter("cpu_ns");
  spilled_ = stats_.GetCounter("spilled");
  batches_ = stats_.GetCounter("batches");
  batch_sqes_ = stats_.GetCounter("batch_sqes");
  coalesced_reads_ = stats_.GetCounter("coalesced_reads");
  bytes_saved_ = stats_.GetCounter("bytes_saved");
}

void IoEngine::set_obs(Observability* obs, const std::string& name) {
  submitted_->Tap(ObsCounter(obs, name + "io/submitted"), loop_);
  errors_->Tap(ObsCounter(obs, name + "io/errors"), loop_);
  spilled_->Tap(ObsCounter(obs, name + "io/spilled"), loop_);
  latency_.Tap(ObsHist(obs, name + "io/latency_ns"), loop_);
  obs_spans_ = ObsSpans(obs);
  if (obs_spans_ != nullptr) {
    std::string process = name;
    if (!process.empty() && process.back() == '/') process.pop_back();
    obs_track_ = obs_spans_->Track(process, "io");
  }
}

void IoEngine::SubmitRead(Bytes offset, Bytes length, bool sub_block,
                          std::span<uint8_t> dest, Callback cb) {
  if (fabric_ != nullptr) {
    // The SQE crosses to the device; the read payload crosses back.
    cb = WrapFabricCompletion(NvmeDevice::BusBytes(offset, length, sub_block),
                              loop_->Now(), std::move(cb));
    fabric_->Request(kFabricSqeBytes,
                     [this, offset, length, sub_block, dest, cb = std::move(cb)]() mutable {
                       SubmitReadLocal(offset, length, sub_block, dest, std::move(cb));
                     });
    return;
  }
  SubmitReadLocal(offset, length, sub_block, dest, std::move(cb));
}

void IoEngine::SubmitReadLocal(Bytes offset, Bytes length, bool sub_block,
                               std::span<uint8_t> dest, Callback cb) {
  submitted_->Add(1);
  cpu_ns_->Add(static_cast<uint64_t>(config_.cpu_submit_cost.nanos()));
  Pending p{offset, length, sub_block, dest, std::move(cb), loop_->Now()};
  if (outstanding_ >= config_.queue_depth) {
    spilled_->Add(1);
    pending_.push_back(std::move(p));
    return;
  }
  Dispatch(std::move(p));
}

void IoEngine::SubmitBatch(std::span<ReadOp> ops) {
  if (ops.empty()) return;
  if (fabric_ != nullptr) {
    // One doorbell message carries every SQE of the batch across the
    // request direction; each completion's payload crosses back on its own.
    // Service-local ops (both endpoints on the device side, e.g.
    // re-replication copy chunks) dispatch directly: only serving-path IO
    // traverses — and is billed to — the host fabric.
    const SimTime accepted_at = loop_->Now();
    auto batch = std::make_shared<std::vector<ReadOp>>();
    batch->reserve(ops.size());
    std::vector<ReadOp> local;
    for (ReadOp& op : ops) {
      if (op.service_local) {
        local.push_back(std::move(op));
        continue;
      }
      op.cb = WrapFabricCompletion(
          NvmeDevice::BusBytes(op.offset, op.length, op.sub_block), accepted_at,
          std::move(op.cb));
      batch->push_back(std::move(op));
    }
    if (!local.empty()) SubmitBatchLocal(std::span<ReadOp>(local));
    if (!batch->empty()) {
      fabric_->Request(kFabricSqeBytes * batch->size(),
                       [this, batch] { SubmitBatchLocal(std::span<ReadOp>(*batch)); });
    }
    return;
  }
  SubmitBatchLocal(ops);
}

IoEngine::Callback IoEngine::WrapFabricCompletion(Bytes payload, SimTime accepted_at,
                                                  Callback cb) {
  // Capture the link, not the member: a read submitted over the fabric must
  // return over the same fabric even if the engine is detached mid-flight.
  FabricLink* link = fabric_;
  return [this, link, payload, accepted_at, cb = std::move(cb)](
             Status status, SimDuration /*local*/) mutable {
    link->Response(payload, [this, accepted_at, status = std::move(status),
                             cb = std::move(cb)] {
      cb(status, loop_->Now() - accepted_at);
    });
  };
}

void IoEngine::SubmitBatchLocal(std::span<ReadOp> ops) {
  batches_->Add(1);
  batch_sqes_->Add(ops.size());
  submitted_->Add(ops.size());
  // One doorbell for the whole batch; SQEs after the first are nearly free.
  cpu_ns_->Add(static_cast<uint64_t>(
      config_.cpu_submit_cost.nanos() +
      config_.cpu_submit_cost_batch_sqe.nanos() * static_cast<int64_t>(ops.size() - 1)));
  for (ReadOp& op : ops) {
    if (op.merged_reads > 1) coalesced_reads_->Add(op.merged_reads - 1);
    bytes_saved_->Add(op.bytes_saved);
    Pending p{op.offset, op.length, op.sub_block, op.dest, std::move(op.cb),
              loop_->Now()};
    if (outstanding_ >= config_.queue_depth) {
      spilled_->Add(1);
      pending_.push_back(std::move(p));
      continue;
    }
    Dispatch(std::move(p));
  }
}

void IoEngine::Dispatch(Pending p) {
  ++outstanding_;
  const SimTime submitted_at = p.enqueued_at;
  NvmeDevice::ReadRequest req;
  req.offset = p.offset;
  req.length = p.length;
  req.sub_block = p.sub_block;
  req.dest = p.dest;
  req.on_complete = [this, submitted_at, cb = std::move(p.cb)](
                        Status status, SimDuration /*device_latency*/) mutable {
    OnDeviceComplete(submitted_at, std::move(status), std::move(cb));
  };
  device_->SubmitRead(std::move(req));
}

void IoEngine::OnDeviceComplete(SimTime submitted_at, Status status, Callback cb) {
  --outstanding_;
  assert(outstanding_ >= 0);

  // Refill the device queue from the spill queue.
  if (!pending_.empty() && outstanding_ < config_.queue_depth) {
    Pending next = std::move(pending_.front());
    pending_.pop_front();
    Dispatch(std::move(next));
  }

  const bool interrupt = config_.completion_mode == CompletionMode::kInterrupt;
  const SimDuration reap_cpu =
      interrupt ? config_.cpu_complete_cost_interrupt : config_.cpu_complete_cost_polling;
  cpu_ns_->Add(static_cast<uint64_t>(reap_cpu.nanos()));
  const SimDuration delivery = interrupt ? config_.interrupt_delay : SimDuration(0);

  if (!status.ok()) errors_->Add(1);
  completed_->Add(1);

  auto finish = [this, submitted_at, status = std::move(status), cb = std::move(cb)]() mutable {
    const SimDuration e2e = loop_->Now() - submitted_at;
    latency_.Record(e2e);
    if (obs_spans_ != nullptr) {
      obs_spans_->Span(obs_track_, "io.read", submitted_at, loop_->Now());
    }
    if (cb) cb(std::move(status), e2e);
  };
  if (delivery > SimDuration(0)) {
    loop_->ScheduleAfter(delivery, std::move(finish));
  } else {
    finish();
  }
}

double IoEngine::IopsPerCore() const {
  const double cpu_s = static_cast<double>(cpu_ns_->value()) / 1e9;
  if (cpu_s <= 0) return 0;
  return static_cast<double>(completed_->value()) / cpu_s;
}

}  // namespace sdm
