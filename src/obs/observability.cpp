#include "obs/observability.h"

#include <algorithm>

namespace sdm {

Observability::Observability(const ObsConfig& config) {
  if (config.enable_metrics) {
    metrics_ = std::make_unique<MetricsRegistry>(config.metrics_interval);
    if (!config.slo_rules.empty()) {
      slo_ = std::make_unique<SloWatchdog>(config.slo_rules);
      metrics_->SetWindowListener([watchdog = slo_.get()](
                                      const std::string& name, const WindowSample& w) {
        watchdog->OnWindow(name, w);
      });
    }
  }
  if (config.enable_tracing) {
    spans_ = std::make_unique<SpanRecorder>(config.trace_sample_every,
                                            config.trace_max_spans);
  }
}

void Observability::Finalize() {
  if (metrics_ != nullptr) metrics_->Finalize();
}

std::string Observability::MetricsJson() const {
  std::vector<MetricsRegistry::SeriesRef> series;
  if (metrics_ != nullptr) metrics_->CollectSeries(&series);
  // The registry keeps counters, gauges and histograms in separate maps;
  // one sort by name interleaves them into a single name-ordered list.
  std::sort(series.begin(), series.end(),
            [](const MetricsRegistry::SeriesRef& a, const MetricsRegistry::SeriesRef& b) {
              return *a.name < *b.name;
            });
  std::string out;
  out.append("{\"interval_ns\":");
  obs_internal::AppendJsonNumber(
      &out, static_cast<double>(metrics_ != nullptr ? metrics_->interval_ns() : 0));
  out.append(",\"series\":[");
  for (size_t i = 0; i < series.size(); ++i) {
    if (i > 0) out.push_back(',');
    MetricsRegistry::AppendSeriesJson(&out, series[i]);
  }
  out.append("]}");
  return out;
}

std::string Observability::TraceJson() const {
  // Tracing off: the document an empty recorder exports.
  return spans_ != nullptr ? spans_->ExportChromeTrace()
                           : SpanRecorder(1, 0).ExportChromeTrace();
}

std::string Observability::SloJson() const {
  std::vector<const SloEvent*> events;
  if (slo_ != nullptr) {
    for (const SloEvent& e : slo_->events()) events.push_back(&e);
  }
  // Events are recorded in metric-flush order; the export orders them by
  // (window, rule, edge) so the document reads as a timeline.
  std::sort(events.begin(), events.end(), [](const SloEvent* a, const SloEvent* b) {
    if (a->t_ns != b->t_ns) return a->t_ns < b->t_ns;
    if (a->rule != b->rule) return a->rule < b->rule;
    return a->fired < b->fired;
  });
  std::string out;
  out.append("{\"events\":[");
  for (size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out.push_back(',');
    SloWatchdog::AppendEventJson(&out, *events[i]);
  }
  out.append("]}");
  return out;
}

}  // namespace sdm
