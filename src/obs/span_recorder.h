// Query-lifecycle span tracing (src/obs).
//
// Dapper-style causal tracing over virtual time: components record spans
// (plan, lane residency, device service, fabric hop, retry/hedge/repair) and
// instants (join, merge, promote, sick transition) onto named tracks. Events
// land in a bounded ring per recorder — when full, NEW events are dropped and
// counted, never evicting history — and export writes one Chrome trace-event
// JSON document viewable in chrome://tracing or Perfetto.
//
// Recording is timing-inert: virtual timestamps are read, never advanced,
// and nothing is scheduled. Export determinism: pids/tids are assigned from
// the *sorted* process/thread names at export time and events are globally
// sorted by (ts, pid, tid, per-track seq, phase), so the emitted bytes do not
// depend on the order in which components registered their tracks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace sdm {

class SpanRecorder {
 public:
  using TrackId = uint32_t;

  SpanRecorder(uint32_t sample_every, size_t max_events);

  /// Interns a (process, thread) track — e.g. ("host0", "queries") or
  /// ("svc/dev0", "sched"). Idempotent; resolve once at component setup.
  [[nodiscard]] TrackId Track(const std::string& process, const std::string& thread);

  /// Records a completed span [start, end] on `track`. `args_json` is either
  /// empty or a complete JSON object ("{\"rows\":3}") emitted verbatim.
  void Span(TrackId track, const char* name, SimTime start, SimTime end,
            std::string args_json = {});

  /// Records a zero-duration instant event.
  void Instant(TrackId track, const char* name, SimTime at, std::string args_json = {});

  /// Query-sampling period for the inference layer (1 = trace every query).
  [[nodiscard]] uint32_t sample_every() const { return sample_every_; }

  [[nodiscard]] size_t event_count() const { return events_.size(); }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

  /// The ring as one Chrome trace-event JSON document.
  [[nodiscard]] std::string ExportChromeTrace() const;

 private:
  struct TrackInfo {
    std::string process;
    std::string thread;
    uint64_t next_seq = 0;  ///< Per-track record order, the merge tie-break.
  };

  struct Event {
    int64_t start_ns;
    int64_t end_ns;  ///< < 0 marks an instant.
    TrackId track;
    uint64_t track_seq;
    const char* name;  ///< String literals only (component-owned static text).
    std::string args;
  };

  [[nodiscard]] bool Admit();

  uint32_t sample_every_;
  size_t max_events_;
  uint64_t dropped_ = 0;
  std::vector<TrackInfo> tracks_;
  std::map<std::pair<std::string, std::string>, TrackId> track_ids_;
  std::vector<Event> events_;
};

}  // namespace sdm
