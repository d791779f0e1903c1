#include "common/stats.h"

#include "common/event_loop.h"
#include "obs/metrics.h"

namespace sdm {

void Counter::Forward(uint64_t delta) { tap_->Add(clock_->Now(), delta); }

Counter* StatsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

uint64_t StatsRegistry::CounterValue(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, uint64_t>> StatsRegistry::Counters() const {
  std::vector<std::pair<std::string, uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) out.emplace_back(name, counter->value());
  return out;
}

}  // namespace sdm
