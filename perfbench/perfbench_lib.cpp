#include "perfbench_lib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "embedding/quantization.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 1) {
    q.q1 = q.q2 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive", n=4).
  const int64_t m = n + 1;
  double out[3];
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    out[i - 1] = (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = out[0];
  q.q2 = out[1];
  q.q3 = out[2];
  return q;
}

std::vector<double> SegmentKernels(std::span<const Segment> segments, size_t half_window) {
  const size_t n = segments.size();
  std::vector<double> out;
  out.reserve(n);
  std::vector<double> window;
  for (size_t i = 0; i < n; ++i) {
    window.clear();
    const size_t lo = i >= half_window ? i - half_window : 0;
    const size_t hi = std::min(n, i + 1 + half_window);
    for (size_t j = lo; j < hi; ++j) {
      window.push_back(segments[j].kernel_before_s);
      window.push_back(segments[j].kernel_after_s);
    }
    out.push_back(Median(window));
  }
  return out;
}

RateEstimate EstimateRate(std::span<const Segment> segments, std::span<const double> work,
                          const Normalizer& norm) {
  RateEstimate e;
  const std::vector<double> kernels = SegmentKernels(segments, norm.half_window);
  std::vector<double> normalized;
  std::vector<double> raw;
  for (size_t i = 0; i < segments.size() && i < work.size(); ++i) {
    if (segments[i].seconds <= 0 || kernels[i] <= 0) continue;
    normalized.push_back(work[i] * kernels[i] / (segments[i].seconds * norm.nominal_kernel_s));
    raw.push_back(work[i] / segments[i].seconds);
  }
  e.segments = normalized.size();
  e.spread = QuartilesOf(normalized).Spread();
  e.raw_spread = QuartilesOf(raw).Spread();
  e.median = Median(std::move(normalized));
  e.raw_median = Median(std::move(raw));
  return e;
}

double NormalizedMedianCost(std::span<const Segment> segments,
                            std::span<const double> cost_seconds, std::span<const double> units,
                            const Normalizer& norm) {
  const std::vector<double> kernels = SegmentKernels(segments, norm.half_window);
  std::vector<double> per_unit;
  for (size_t i = 0; i < segments.size() && i < cost_seconds.size() && i < units.size(); ++i) {
    if (units[i] <= 0 || kernels[i] <= 0) continue;
    per_unit.push_back(cost_seconds[i] * norm.nominal_kernel_s / (kernels[i] * units[i]));
  }
  return Median(std::move(per_unit));
}

namespace {

/// splitmix64: the kernel's own input generator (fixed seed, std-only).
uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr size_t kKernelKeys = 16384;
constexpr size_t kKernelChaseSteps = 20000;

}  // namespace

ReferenceKernel::ReferenceKernel(size_t chase_bytes) {
  uint64_t state = 0x5eed;
  // One random cycle through the whole ring (Sattolo's algorithm), so the
  // walk touches every slot before repeating.
  const size_t n = std::max<size_t>(2, chase_bytes / sizeof(uint32_t));
  ring_.resize(n);
  for (size_t i = 0; i < n; ++i) ring_[i] = static_cast<uint32_t>(i);
  for (size_t i = n - 1; i > 0; --i) {
    const size_t j = SplitMix(state) % i;
    std::swap(ring_[i], ring_[j]);
  }
  keys_.resize(kKernelKeys);
  for (auto& k : keys_) k = SplitMix(state);
}

double ReferenceKernel::Run() {
  // An untimed pass first brings the kernel's own data back into cache, so
  // the timed pass measures the machine rather than what ran before it.
  (void)Pass();
  return Pass();
}

double ReferenceKernel::Pass() {
  const double t0 = NowSeconds();
  scratch_ = keys_;
  std::sort(scratch_.begin(), scratch_.end());
  std::vector<uint64_t> heap(keys_.begin(), keys_.begin() + kKernelKeys / 2);
  std::make_heap(heap.begin(), heap.end());
  for (size_t i = 0; i < heap.size() / 2; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    heap.pop_back();
  }
  std::unordered_map<uint64_t, uint32_t> map;
  map.reserve(kKernelKeys / 2);
  for (size_t i = 0; i < kKernelKeys / 2; ++i) map.emplace(keys_[i], static_cast<uint32_t>(i));
  uint64_t found = 0;
  for (size_t i = 0; i < kKernelKeys; ++i) found += map.count(keys_[i]);
  uint32_t p = cursor_;
  for (size_t i = 0; i < kKernelChaseSteps; ++i) p = ring_[p];
  cursor_ = p;
  sink_ += scratch_[kKernelKeys / 2] + heap.front() + found + p;
  return NowSeconds() - t0;
}

size_t ReferenceKernel::footprint_bytes() const {
  return ring_.size() * sizeof(uint32_t) + (keys_.size() + scratch_.size()) * sizeof(uint64_t);
}

std::span<const uint8_t> BackingRow(sdm::SdmStore& store, sdm::TableId table,
                                    sdm::RowIndex row) {
  const sdm::TableRuntime& t = store.table(table);
  const sdm::Bytes rb = t.config.row_bytes();
  if (row >= t.config.num_rows) return {};
  const sdm::Bytes off = t.offset + row * rb;
  if (t.tier == sdm::MemoryTier::kFm) {
    auto view = store.fm().View(off, rb);
    return view.ok() ? view.value() : std::span<const uint8_t>{};
  }
  const std::span<const uint8_t> backing = store.sm_device(t.sm_device).backing();
  if (off + rb > backing.size()) return {};
  return backing.subspan(off, rb);
}

std::vector<float> ReferencePooledSum(sdm::SdmStore& store, sdm::TableId table,
                                      std::span<const sdm::RowIndex> indices) {
  const sdm::TableRuntime& t = store.table(table);
  std::vector<float> acc(t.config.dim, 0.0F);
  for (const sdm::RowIndex idx : indices) {
    sdm::RowIndex physical = idx;
    if (t.mapping.has_value()) {
      const auto mapped = t.mapping->Lookup(idx);
      if (!mapped.has_value()) continue;
      physical = *mapped;
    }
    const std::span<const uint8_t> row = BackingRow(store, table, physical);
    if (row.empty()) continue;
    sdm::DequantizeAccumulate(t.config.dtype, row, acc);
  }
  return acc;
}

double MaxRelDiff(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])) /
                     std::max(1.0, std::fabs(static_cast<double>(b[i])));
    if (std::isnan(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

namespace {

size_t StatusField(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kib = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kib = std::strtoull(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

}  // namespace

size_t CurrentRssBytes() { return StatusField("VmRSS:"); }
size_t PeakRssBytes() { return StatusField("VmHWM:"); }

int32_t SpanLog::Begin(const char* name, int64_t query) {
  Span s;
  s.name = name;
  s.start = NowSeconds();
  s.parent = open_.empty() ? kNoParent : open_.back();
  s.query = query;
  spans_.push_back(s);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end = NowSeconds();
  open_.pop_back();  // spans close innermost first
}

std::vector<std::pair<std::string, double>> SpanLog::SelfSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<std::pair<std::string, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double self = (spans_[i].end - spans_[i].start) - child[i];
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& kv) { return kv.first == spans_[i].name; });
    if (it == out.end()) {
      out.emplace_back(spans_[i].name, self);
    } else {
      it->second += self;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"query\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
                 s.parent, static_cast<long long>(s.query));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
