#include "obs/metrics.h"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace sdm {

namespace obs_internal {

void AppendJsonNumber(std::string* out, double v) {
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out->append(buf);
}

}  // namespace obs_internal

// ---------------------------------------------------------------------------
// WindowedCounter
// ---------------------------------------------------------------------------

void WindowedCounter::Add(SimTime now, uint64_t delta) {
  // A zero delta is no event: it must not open a window of its own.
  if (delta == 0) return;
  // Fast path: still inside the open window — two compares, no division.
  const int64_t t = now.nanos();
  if (!open_ || t < window_start_ || t >= window_end_) {
    Flush();
    open_ = true;
    window_start_ = owner_->WindowStart(now);
    window_end_ = window_start_ + owner_->interval_ns();
    value_ = 0;
  }
  value_ += delta;
}

void WindowedCounter::Flush() {
  if (!open_) return;
  open_ = false;
  WindowSample w;
  w.window_start_ns = window_start_;
  w.value = static_cast<double>(value_);
  series_.push_back(w);
  owner_->NotifyWindow(name_, w);
}

// ---------------------------------------------------------------------------
// WindowedGauge
// ---------------------------------------------------------------------------

void WindowedGauge::Set(SimTime now, double value) {
  const int64_t t = now.nanos();
  if (!open_ || t < window_start_ || t >= window_end_) {
    Flush();
    open_ = true;
    window_start_ = owner_->WindowStart(now);
    window_end_ = window_start_ + owner_->interval_ns();
  }
  value_ = value;
}

void WindowedGauge::Flush() {
  if (!open_) return;
  open_ = false;
  WindowSample w;
  w.window_start_ns = window_start_;
  w.value = value_;
  series_.push_back(w);
  owner_->NotifyWindow(name_, w);
}

// ---------------------------------------------------------------------------
// WindowedHistogram
// ---------------------------------------------------------------------------

void WindowedHistogram::Record(SimTime now, int64_t value) {
  const int64_t t = now.nanos();
  if (!open_ || t < window_start_ || t >= window_end_) {
    Flush();
    open_ = true;
    window_start_ = owner_->WindowStart(now);
    window_end_ = window_start_ + owner_->interval_ns();
  }
  hist_.Record(value);
}

void WindowedHistogram::Flush() {
  if (!open_) return;
  open_ = false;
  WindowSample w;
  w.window_start_ns = window_start_;
  w.count = hist_.count();
  w.mean = hist_.mean();
  w.p50 = hist_.P50();
  w.p95 = hist_.P95();
  w.p99 = hist_.P99();
  w.max = hist_.max();
  series_.push_back(w);
  hist_.Reset();
  owner_->NotifyWindow(name_, w);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::MetricsRegistry(SimDuration interval)
    : interval_ns_(interval.nanos()) {
  assert(interval_ns_ > 0 && "metrics_interval must be positive");
}

WindowedCounter* MetricsRegistry::Counter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new WindowedCounter(this, name));
  return slot.get();
}

WindowedGauge* MetricsRegistry::Gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new WindowedGauge(this, name));
  return slot.get();
}

WindowedHistogram* MetricsRegistry::Hist(const std::string& name) {
  auto& slot = hists_[name];
  if (slot == nullptr) slot.reset(new WindowedHistogram(this, name));
  return slot.get();
}

void MetricsRegistry::Finalize() {
  for (auto& [name, c] : counters_) c->Flush();
  for (auto& [name, g] : gauges_) g->Flush();
  for (auto& [name, h] : hists_) h->Flush();
}

namespace {

void AppendPointsCounterLike(std::string* out, const std::vector<WindowSample>& series) {
  out->push_back('[');
  for (size_t i = 0; i < series.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->push_back('[');
    obs_internal::AppendJsonNumber(out, static_cast<double>(series[i].window_start_ns));
    out->push_back(',');
    obs_internal::AppendJsonNumber(out, series[i].value);
    out->push_back(']');
  }
  out->push_back(']');
}

void AppendPointsHist(std::string* out, const std::vector<WindowSample>& series) {
  out->push_back('[');
  for (size_t i = 0; i < series.size(); ++i) {
    const WindowSample& w = series[i];
    if (i > 0) out->push_back(',');
    out->push_back('[');
    obs_internal::AppendJsonNumber(out, static_cast<double>(w.window_start_ns));
    out->push_back(',');
    obs_internal::AppendJsonNumber(out, static_cast<double>(w.count));
    out->push_back(',');
    obs_internal::AppendJsonNumber(out, w.mean);
    out->push_back(',');
    obs_internal::AppendJsonNumber(out, static_cast<double>(w.p50));
    out->push_back(',');
    obs_internal::AppendJsonNumber(out, static_cast<double>(w.p95));
    out->push_back(',');
    obs_internal::AppendJsonNumber(out, static_cast<double>(w.p99));
    out->push_back(',');
    obs_internal::AppendJsonNumber(out, static_cast<double>(w.max));
    out->push_back(']');
  }
  out->push_back(']');
}

}  // namespace

void MetricsRegistry::CollectSeries(std::vector<SeriesRef>* out) const {
  for (const auto& [name, c] : counters_) {
    if (!c->series().empty()) out->push_back({&name, "counter", &c->series()});
  }
  for (const auto& [name, g] : gauges_) {
    if (!g->series().empty()) out->push_back({&name, "gauge", &g->series()});
  }
  for (const auto& [name, h] : hists_) {
    if (!h->series().empty()) out->push_back({&name, "hist", &h->series()});
  }
}

void MetricsRegistry::AppendSeriesJson(std::string* out, const SeriesRef& ref) {
  out->append("{\"name\":\"");
  out->append(*ref.name);
  out->append("\",\"kind\":\"");
  out->append(ref.kind);
  out->append("\",\"points\":");
  if (ref.kind[0] == 'h') {
    AppendPointsHist(out, *ref.series);
  } else {
    AppendPointsCounterLike(out, *ref.series);
  }
  out->push_back('}');
}

}  // namespace sdm
