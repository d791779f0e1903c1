#include "obs/span_recorder.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace sdm {

SpanRecorder::SpanRecorder(uint32_t sample_every, size_t max_events)
    : sample_every_(sample_every == 0 ? 1 : sample_every), max_events_(max_events) {}

SpanRecorder::TrackId SpanRecorder::Track(const std::string& process,
                                          const std::string& thread) {
  const auto [it, inserted] =
      track_ids_.try_emplace({process, thread}, static_cast<TrackId>(tracks_.size()));
  if (inserted) tracks_.push_back(TrackInfo{process, thread, 0});
  return it->second;
}

bool SpanRecorder::Admit() {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return false;
  }
  return true;
}

void SpanRecorder::Span(TrackId track, const char* name, SimTime start, SimTime end,
                        std::string args_json) {
  assert(track < tracks_.size());
  if (!Admit()) return;
  events_.push_back(Event{start.nanos(), end.nanos(), track, tracks_[track].next_seq++,
                          name, std::move(args_json)});
}

void SpanRecorder::Instant(TrackId track, const char* name, SimTime at,
                           std::string args_json) {
  assert(track < tracks_.size());
  if (!Admit()) return;
  events_.push_back(
      Event{at.nanos(), -1, track, tracks_[track].next_seq++, name, std::move(args_json)});
}

namespace {

/// One emitted trace record: a span expands into a "b" and an "e" record
/// sharing an id; an instant stays one "i" record.
struct Rec {
  int64_t ts_ns;
  int pid;
  int tid;
  uint64_t track_seq;
  int phase;  ///< 0 = "b", 1 = "i", 2 = "e" — begins sort before same-ts ends.
  const void* span_key;  ///< Event identity for id pairing (null for instants).
  const char* name;
  const std::string* args;
};

void AppendTs(std::string* out, int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  out->append(buf);
}

void AppendCommon(std::string* out, const Rec& r) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"pid\":%d,\"tid\":%d,\"ts\":", r.pid, r.tid);
  out->append(buf);
  AppendTs(out, r.ts_ns);
  out->append(",\"name\":\"");
  out->append(r.name);
  out->push_back('"');
  if (r.args != nullptr && !r.args->empty()) {
    out->append(",\"args\":");
    out->append(*r.args);
  }
}

}  // namespace

std::string SpanRecorder::ExportChromeTrace() const {
  // pid/tid assignment from sorted names, independent of registration order.
  std::map<std::string, std::map<std::string, int>> names;  // process -> threads
  for (const TrackInfo& t : tracks_) names[t.process][t.thread] = 0;
  std::map<std::string, int> pids;
  int next_pid = 0;
  for (auto& [process, threads] : names) {
    pids[process] = next_pid++;
    int next_tid = 0;
    for (auto& [thread, tid] : threads) tid = next_tid++;
  }

  std::vector<Rec> recs;
  for (const Event& ev : events_) {
    const TrackInfo& t = tracks_[ev.track];
    const int pid = pids[t.process];
    const int tid = names[t.process][t.thread];
    if (ev.end_ns < 0) {
      recs.push_back(Rec{ev.start_ns, pid, tid, ev.track_seq, 1, nullptr, ev.name, &ev.args});
    } else {
      recs.push_back(Rec{ev.start_ns, pid, tid, ev.track_seq, 0, &ev, ev.name, &ev.args});
      recs.push_back(Rec{ev.end_ns, pid, tid, ev.track_seq, 2, &ev, ev.name, nullptr});
    }
  }
  std::sort(recs.begin(), recs.end(), [](const Rec& a, const Rec& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    if (a.pid != b.pid) return a.pid < b.pid;
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.track_seq != b.track_seq) return a.track_seq < b.track_seq;
    return a.phase < b.phase;
  });

  std::string out;
  out.reserve(256 + recs.size() * 96);
  out.append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  char buf[96];

  // Track-naming metadata first (ts-less), in pid/tid order.
  for (const auto& [process, pid] : pids) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"ph\":\"M\",\"pid\":%d,\"tid\":0,", pid);
    out.append(buf);
    out.append("\"name\":\"process_name\",\"args\":{\"name\":\"");
    out.append(process);
    out.append("\"}}");
    for (const auto& [thread, tid] : names[process]) {
      out.push_back(',');
      std::snprintf(buf, sizeof(buf), "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,", pid, tid);
      out.append(buf);
      out.append("\"name\":\"thread_name\",\"args\":{\"name\":\"");
      out.append(thread);
      out.append("\"}}");
    }
  }

  // Async-span ids in sorted order (first "b" encounter), so numbering is a
  // function of the sorted stream, not of insertion order.
  std::map<const void*, uint64_t> span_ids;
  uint64_t next_id = 1;
  for (const Rec& r : recs) {
    if (!first) out.push_back(',');
    first = false;
    if (r.phase == 1) {
      out.append("{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"sdm\",");
      AppendCommon(&out, r);
      out.append("}");
      continue;
    }
    auto [it, inserted] = span_ids.try_emplace(r.span_key, next_id);
    if (inserted) ++next_id;
    std::snprintf(buf, sizeof(buf), "{\"ph\":\"%c\",\"cat\":\"sdm\",\"id\":\"0x%llx\",",
                  r.phase == 0 ? 'b' : 'e',
                  static_cast<unsigned long long>(it->second));
    out.append(buf);
    AppendCommon(&out, r);
    out.append("}");
  }
  out.append("]}");
  return out;
}

}  // namespace sdm
