#include "fault/health_monitor.h"

#include <cassert>

namespace sdm {

HealthMonitor::HealthMonitor(HealthMonitorConfig config, size_t endpoints)
    : config_(config),
      endpoints_(endpoints),
      sick_transitions_(stats_.GetCounter("sick_transitions")),
      probes_admitted_(stats_.GetCounter("probes_admitted")),
      sheds_(stats_.GetCounter("sheds")),
      was_sick_(endpoints, 0) {
  assert(config_.window >= 1);
  assert(config_.probe_interval >= 1);
  for (Endpoint& e : endpoints_) {
    e.outcomes.assign(static_cast<size_t>(config_.window), 0);
  }
}

void HealthMonitor::set_obs(Observability* obs, EventLoop* loop,
                            const std::string& name) {
  obs_loop_ = loop;
  sick_transitions_->Tap(ObsCounter(obs, name + "health/sick_transitions"), loop);
  sheds_->Tap(ObsCounter(obs, name + "health/sheds"), loop);
  obs_spans_ = ObsSpans(obs);
  if (obs_spans_ != nullptr) {
    std::string process = name;
    if (!process.empty() && process.back() == '/') process.pop_back();
    obs_track_ = obs_spans_->Track(process, "health");
  }
}

void HealthMonitor::Record(size_t endpoint, bool ok) {
  if (!config_.enabled) return;
  assert(endpoint < endpoints_.size());
  Endpoint& e = endpoints_[endpoint];
  const uint8_t incoming = ok ? 0 : 1;
  if (e.samples == e.outcomes.size()) {
    e.errors -= e.outcomes[e.next];  // evict the oldest outcome
  } else {
    ++e.samples;
  }
  e.errors += incoming;
  e.outcomes[e.next] = incoming;
  e.next = (e.next + 1) % e.outcomes.size();

  const bool sick = Sick(endpoint);
  const bool edge = sick && !was_sick_[endpoint];
  if (edge) {
    sick_transitions_->Add(1);
    if (obs_spans_ != nullptr) {
      obs_spans_->Instant(obs_track_, "sick", obs_loop_->Now(),
                          "{\"endpoint\":" + std::to_string(endpoint) + "}");
    }
    e.probe_clock = 0;
  }
  if (!sick && was_sick_[endpoint] && obs_spans_ != nullptr) {
    obs_spans_->Instant(obs_track_, "recovered", obs_loop_->Now(),
                        "{\"endpoint\":" + std::to_string(endpoint) + "}");
  }
  was_sick_[endpoint] = sick ? 1 : 0;
  // Notify after the state flip so the listener observes Sick() == true.
  if (edge && sick_listener_) sick_listener_(endpoint);
}

bool HealthMonitor::Sick(size_t endpoint) const {
  if (!config_.enabled) return false;
  assert(endpoint < endpoints_.size());
  const Endpoint& e = endpoints_[endpoint];
  // Half a window of evidence before condemning an endpoint: a single
  // early error must not trip a 100%-error fraction.
  if (e.samples < e.outcomes.size() / 2 + 1) return false;
  return static_cast<double>(e.errors) >=
         config_.sick_threshold * static_cast<double>(e.samples);
}

bool HealthMonitor::AdmitProbe(size_t endpoint) {
  assert(endpoint < endpoints_.size());
  Endpoint& e = endpoints_[endpoint];
  const bool admit =
      e.probe_clock % static_cast<uint64_t>(config_.probe_interval) == 0;
  ++e.probe_clock;
  if (admit) {
    probes_admitted_->Add(1);
  } else {
    sheds_->Add(1);
  }
  return admit;
}

}  // namespace sdm
