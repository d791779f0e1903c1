#include "trace/trace_gen.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace sdm {

IndexPermuter::IndexPermuter(uint64_t n, uint64_t seed)
    : n_(std::max<uint64_t>(n, 1)),
      memo_ranks_(n_ <= UINT32_MAX ? std::min(n_, kMemoRanks) : 0) {
  // Smallest even-bit domain 2^(2h) >= n, h >= 1.
  half_bits_ = 1;
  while ((uint64_t{1} << (2 * half_bits_)) < n_) ++half_bits_;
  uint64_t s = seed;
  for (auto& k : keys_) k = Mix64(s++);
}

uint64_t IndexPermuter::FeistelOnce(uint64_t x) const {
  const uint64_t mask = (uint64_t{1} << half_bits_) - 1;
  uint64_t left = x >> half_bits_;
  uint64_t right = x & mask;
  for (const uint64_t key : keys_) {
    const uint64_t f = Mix64(right ^ key) & mask;
    const uint64_t new_left = right;
    right = left ^ f;
    left = new_left;
  }
  return (left << half_bits_) | right;
}

uint64_t IndexPermuter::CycleWalk(uint64_t x) const {
  if (n_ == 1) return 0;
  // Cycle-walk until we land back inside [0, n).
  uint64_t y = FeistelOnce(x);
  while (y >= n_) y = FeistelOnce(y);
  return y;
}

uint64_t IndexPermuter::Permute(uint64_t x) const {
  assert(x < n_);
  if (x >= memo_ranks_) return CycleWalk(x);
  if (memo_ == nullptr) memo_ = std::make_unique<ZeroedBuffer>(memo_ranks_ * sizeof(uint32_t));
  uint32_t& slot = reinterpret_cast<uint32_t*>(memo_->data())[x];
  if (slot == 0) slot = static_cast<uint32_t>(CycleWalk(x) + 1);
  return slot - 1;
}

TableAccessStream::TableAccessStream(const TableConfig& config, uint64_t seed)
    : zipf_(std::max<uint64_t>(config.num_rows, 1), config.zipf_alpha),
      permuter_(std::max<uint64_t>(config.num_rows, 1), seed) {}

RowIndex TableAccessStream::Next(Rng& rng) const {
  return permuter_.Permute(zipf_.Sample(rng));
}

RowIndex TableAccessStream::IndexAtRank(uint64_t rank) const {
  return permuter_.Permute(rank);
}

QueryGenerator::QueryGenerator(const ModelConfig& model, WorkloadConfig config)
    : model_(model),
      config_(config),
      user_sampler_(std::max<uint64_t>(config.num_users, 1), config.user_zipf_alpha),
      user_permuter_(std::max<uint64_t>(config.num_users, 1), config.seed ^ 0xabcd),
      rng_(config.seed) {
  streams_.reserve(model_.tables.size());
  for (size_t i = 0; i < model_.tables.size(); ++i) {
    streams_.emplace_back(model_.tables[i], config_.seed ^ Mix64(i));
  }
}

std::vector<RowIndex> QueryGenerator::UserTableIndices(UserId user, size_t table) {
  const TableConfig& cfg = model_.tables[table];
  // Sticky set: deterministic in (user, table). Its length is also sticky —
  // heavy-feature users stay heavy — and its indices follow the table's
  // popularity law so aggregate locality matches the stream.
  Rng sticky(Mix64(user * 0x9e3779b97f4a7c15ULL) ^ Mix64(table) ^ config_.seed);
  const double pf = cfg.avg_pooling_factor * config_.pooling_scale;
  const auto len = static_cast<size_t>(
      std::max<long>(1, std::lround(pf * std::exp(sticky.NextGaussian() * 0.4))));
  std::vector<RowIndex> out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (config_.user_index_churn > 0 && rng_.NextBernoulli(config_.user_index_churn)) {
      out.push_back(streams_[table].Next(rng_));  // churned: fresh draw
    } else {
      out.push_back(streams_[table].Next(sticky));  // sticky: deterministic
    }
  }
  return out;
}

std::vector<RowIndex> QueryGenerator::ItemTableIndices(size_t table) {
  const TableConfig& cfg = model_.tables[table];
  const double pf = cfg.avg_pooling_factor * config_.pooling_scale;
  const auto per_item = static_cast<size_t>(std::max<long>(1, std::lround(pf)));
  const auto total = per_item * static_cast<size_t>(std::max(1, model_.item_batch_size));
  std::vector<RowIndex> out;
  out.reserve(total);
  for (size_t i = 0; i < total; ++i) out.push_back(streams_[table].Next(rng_));
  return out;
}

Query QueryGenerator::Draw() {
  const UserId user = user_permuter_.Permute(user_sampler_.Sample(rng_));
  return Generate(user);
}

Query QueryGenerator::Generate(UserId user) {
  Query q;
  q.user = user;
  q.indices.resize(model_.tables.size());
  for (size_t t = 0; t < model_.tables.size(); ++t) {
    if (model_.tables[t].role != TableRole::kUser) {
      q.indices[t] = ItemTableIndices(t);
      continue;
    }
    q.indices[t] = UserTableIndices(user, t);
    // InferenceEval (paper Table 2): user batch > 1 means each query
    // carries samples for several *different* users, so the user side is
    // batched just like the item side (and far less sticky per host).
    for (int extra = 1; extra < model_.user_batch_size; ++extra) {
      const UserId other = user_permuter_.Permute(user_sampler_.Sample(rng_));
      const std::vector<RowIndex> more = UserTableIndices(other, t);
      q.indices[t].insert(q.indices[t].end(), more.begin(), more.end());
    }
  }
  return q;
}

/// The worker and its ring. Slots [head, head + count) (mod kLookahead)
/// hold generated queries in stream order; only the worker writes the
/// slot after them, and it publishes the slot by raising `count` under the
/// mutex, so the caller and the worker never touch one slot at once.
struct QueryGenerator::Lookahead {
  struct Slot {
    Query query;
    Rng rng_before{0};  ///< the generator's Rng before `query` was drawn
  };

  std::mutex mu;
  std::condition_variable ready;  ///< a query was published (caller waits)
  std::condition_variable space;  ///< half the ring drained (worker waits)
  std::array<Slot, kLookahead> ring;
  size_t head = 0;
  size_t count = 0;
  bool stop = false;
  bool caller_waiting = false;
  bool worker_waiting = false;
  std::exception_ptr failure;  ///< what ended the worker early; Next rethrows it
  std::thread worker;

  /// The worker: draws the sequential stream into the ring until stopped.
  /// A query it has started is always published, so the oldest
  /// unconsumed slot's Rng state is where a quiesce rewinds to. A draw
  /// that throws ends the worker with the Rng rewound to before it.
  void Run(QueryGenerator& gen) {
    std::unique_lock lock(mu);
    while (!stop) {
      if (count == kLookahead) {
        worker_waiting = true;
        space.wait(lock, [this] { return stop || count <= kLookahead / 2; });
        worker_waiting = false;
        continue;
      }
      Slot& slot = ring[(head + count) % kLookahead];
      lock.unlock();
      slot.rng_before = gen.rng_;
      try {
        slot.query = gen.Draw();
      } catch (...) {
        gen.rng_ = slot.rng_before;
        lock.lock();
        failure = std::current_exception();
        if (caller_waiting) ready.notify_one();
        return;
      }
      lock.lock();
      ++count;
      if (caller_waiting) ready.notify_one();
    }
  }
};

QueryGenerator::~QueryGenerator() { Quiesce(); }

Query QueryGenerator::Next() {
  if (lookahead_ == nullptr) {
    auto la = std::make_unique<Lookahead>();
    la->worker = std::thread(&Lookahead::Run, la.get(), std::ref(*this));
    lookahead_ = std::move(la);
  }
  Lookahead& la = *lookahead_;
  std::unique_lock lock(la.mu);
  if (la.count == 0) {
    la.caller_waiting = true;
    la.ready.wait(lock, [&la] { return la.count > 0 || la.failure != nullptr; });
    la.caller_waiting = false;
    if (la.count == 0) std::rethrow_exception(la.failure);
  }
  Query q = std::move(la.ring[la.head].query);
  la.head = (la.head + 1) % kLookahead;
  --la.count;
  if (la.worker_waiting && la.count <= kLookahead / 2) la.space.notify_one();
  return q;
}

Query QueryGenerator::ForUser(UserId user) {
  Quiesce();
  return Generate(user);
}

void QueryGenerator::Quiesce() {
  if (lookahead_ == nullptr) return;
  Lookahead& la = *lookahead_;
  {
    const std::lock_guard lock(la.mu);
    la.stop = true;
  }
  la.space.notify_one();
  la.worker.join();
  if (la.count > 0) rng_ = la.ring[la.head].rng_before;
  lookahead_.reset();
}

}  // namespace sdm
