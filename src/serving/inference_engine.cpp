#include "serving/inference_engine.h"

#include <cassert>
#include <cstdio>

namespace sdm {

struct InferenceEngine::QueryState {
  Query query;
  QueryCallback cb;
  SimTime arrival;
  SimTime start;
  bool traced = false;  ///< span-sampled query; propagates to its lookups

  size_t next_operator = 0;  // serial mode cursor
  size_t operators_done = 0;
  SimTime user_path_end;
  SimTime item_path_end;
  QueryTrace trace;
};

InferenceEngine::InferenceEngine(SdmStore* store, const ModelConfig& model,
                                 InferenceConfig config)
    : store_(store), model_(model), config_(config), loop_(store->loop()) {
  assert(store->loading_finished());
  assert(store->table_count() == model_.tables.size());
  if (config_.max_concurrent_queries <= 0) {
    config_.max_concurrent_queries = 20;  // single-socket default
  }
  lookup_engine_ = std::make_unique<LookupEngine>(store);
  queries_ = stats_.GetCounter("queries");
  errors_ = stats_.GetCounter("errors");
  cpu_ns_ = stats_.GetCounter("cpu_ns");

  Observability* obs = store->obs();
  const std::string& prefix = store->obs_prefix();
  queries_->Tap(ObsCounter(obs, prefix + "query/requests"), loop_);
  obs_degraded_ = ObsCounter(obs, prefix + "query/degraded");
  obs_queue_depth_ = ObsGauge(obs, prefix + "query/queue_depth");
  obs_lat_ = ObsHist(obs, prefix + "query/latency_ns");
  obs_spans_ = ObsSpans(obs);
  if (obs_spans_ != nullptr) {
    std::string process = prefix;
    if (!process.empty() && process.back() == '/') process.pop_back();
    if (process.empty()) process = "host";
    obs_track_ = obs_spans_->Track(process, "queries");
  }
}

void InferenceEngine::Submit(const Query& query, QueryCallback cb) {
  auto st = std::make_shared<QueryState>();
  st->query = query;
  st->cb = std::move(cb);
  st->arrival = loop_->Now();
  // Sample by submission sequence (not completion order) so the traced set
  // is the same queries in every run regardless of queueing.
  st->traced = obs_spans_ != nullptr &&
               (submit_seq_++ % obs_spans_->sample_every()) == 0;
  if (in_flight_ >= config_.max_concurrent_queries) {
    admission_queue_.push_back(std::move(st));
    if (obs_queue_depth_ != nullptr) {
      obs_queue_depth_->Set(loop_->Now(),
                            static_cast<double>(admission_queue_.size()));
    }
    return;
  }
  ++in_flight_;
  Start(std::move(st));
}

void InferenceEngine::AdmitFromQueue() {
  if (admission_queue_.empty() || in_flight_ >= config_.max_concurrent_queries) return;
  std::shared_ptr<QueryState> st = std::move(admission_queue_.front());
  admission_queue_.pop_front();
  if (obs_queue_depth_ != nullptr) {
    obs_queue_depth_->Set(loop_->Now(),
                          static_cast<double>(admission_queue_.size()));
  }
  ++in_flight_;
  Start(std::move(st));
}

void InferenceEngine::Start(std::shared_ptr<QueryState> st) {
  st->start = loop_->Now();
  st->trace.queue_time = st->start - st->arrival;
  st->user_path_end = st->start;
  st->item_path_end = st->start;

  if (st->query.indices.size() != model_.tables.size()) {
    errors_->Add(1);
    --in_flight_;
    st->cb(InvalidArgumentError("query index lists != table count"), st->trace);
    AdmitFromQueue();
    return;
  }

  if (config_.inter_op_parallelism) {
    // All operators in flight at once; IO discovery overlaps compute (A.2).
    for (size_t t = 0; t < model_.tables.size(); ++t) {
      LaunchOperator(st, t);
    }
  } else {
    LaunchOperator(st, 0);
  }
}

void InferenceEngine::LaunchOperator(const std::shared_ptr<QueryState>& st, size_t table_idx) {
  LookupRequest req;
  req.table = MakeTableId(static_cast<uint32_t>(table_idx));
  req.indices = st->query.indices[table_idx];
  req.traced = st->traced;
  if (req.indices.empty()) {
    // Feature absent for this sample: completes instantly with a zero
    // contribution; still counts as an operator.
    LookupTrace empty;
    OnOperatorDone(st, table_idx, empty);
    return;
  }
  lookup_engine_->Lookup(std::move(req),
                         [this, st, table_idx](Status status, std::vector<float> /*pooled*/,
                                               const LookupTrace& trace) {
                           if (!status.ok()) errors_->Add(1);
                           OnOperatorDone(st, table_idx, trace);
                         });
}

void InferenceEngine::OnOperatorDone(const std::shared_ptr<QueryState>& st, size_t table_idx,
                                     const LookupTrace& trace) {
  const SimTime now = loop_->Now();
  const TableConfig& cfg = model_.tables[table_idx];
  if (cfg.role == TableRole::kUser) {
    st->user_path_end = std::max(st->user_path_end, now);
  } else {
    st->item_path_end = std::max(st->item_path_end, now);
  }
  st->trace.sm_rows += trace.rows_from_sm;
  st->trace.cache_hits += trace.rows_from_cache;
  st->trace.pooled_hits += trace.pooled_cache_hit ? 1 : 0;
  st->trace.rows_failed += trace.rows_failed;
  st->trace.degraded = st->trace.degraded || trace.degraded;
  ++st->operators_done;

  if (!config_.inter_op_parallelism) {
    ++st->next_operator;
    if (st->next_operator < model_.tables.size()) {
      LaunchOperator(st, st->next_operator);
      return;
    }
  }
  if (st->operators_done == model_.tables.size()) {
    FinishQuery(st);
  }
}

void InferenceEngine::FinishQuery(const std::shared_ptr<QueryState>& st) {
  st->trace.user_path = st->user_path_end - st->start;
  st->trace.item_path = st->item_path_end - st->start;

  const SimDuration dense = config_.dense.TimePerQuery(model_);
  if (!config_.accelerator) {
    cpu_ns_->Add(static_cast<uint64_t>(dense.nanos()));
  }
  st->trace.dense_time = dense;

  loop_->ScheduleAfter(dense, [this, st] {
    st->trace.total = loop_->Now() - st->arrival;
    user_path_.Record(st->trace.user_path);
    item_path_.Record(st->trace.item_path);
    queries_->Add(1);
    if (obs_degraded_ != nullptr && st->trace.degraded) obs_degraded_->Add(loop_->Now());
    if (obs_lat_ != nullptr) obs_lat_->Record(loop_->Now(), st->trace.total);
    if (obs_spans_ != nullptr && st->traced) {
      char args[96];
      std::snprintf(args, sizeof(args),
                    "{\"queue_ns\":%lld,\"sm_rows\":%zu,\"degraded\":%s}",
                    static_cast<long long>(st->trace.queue_time.nanos()),
                    static_cast<size_t>(st->trace.sm_rows),
                    st->trace.degraded ? "true" : "false");
      obs_spans_->Span(obs_track_, "query", st->arrival, loop_->Now(), args);
    }
    --in_flight_;
    assert(in_flight_ >= 0);
    st->cb(Status::Ok(), st->trace);
    AdmitFromQueue();
  });
}

}  // namespace sdm
