// Appendix A.5 reproduction: de-quantization at load time.
//
// Paper: storing fp32 rows in SM saves run-time dequantization CPU, but
// each cached row is ~4x bigger, so the FM cache holds fewer rows. "While
// under very CPU bound usecases dequantization could help, but for most of
// the usecases the impact on cache is dominant and does not lead to
// benefit."
#include <cstdio>

#include "bench_util.h"
#include "dlrm/model_zoo.h"
#include "serving/cluster.h"

using namespace sdm;

namespace {

struct VariantResult {
  HostRunReport report;
  double cpu_us_per_query;
  Bytes row_bytes;
};

VariantResult Run(bool dequant_at_load, Bytes fm_capacity, double dequant_bytes_per_sec) {
  ModelConfig model = MakeTinyUniformModel(64, 4, 1, 30'000);
  HostSimConfig cfg;
  cfg.host = MakeHwAO();
  cfg.fm_capacity = fm_capacity;
  cfg.sm_backing_per_device = 128 * kMiB;
  cfg.tuning.dequantize_at_load = dequant_at_load;
  cfg.workload.num_users = 4000;
  cfg.workload.user_index_churn = 0.04;
  cfg.workload.seed = 25;
  cfg.seed = 25;
  HostSimulation sim(cfg);
  if (Status s = sim.LoadModel(model); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return {};
  }
  // Model the CPU-boundness knob through the dequant kernel throughput.
  sim.engine().lookups().cost_model().dequant_bytes_per_sec = dequant_bytes_per_sec;
  sim.Warmup(5000);
  VariantResult v;
  v.report = sim.Run(250, 2000);
  v.cpu_us_per_query = v.report.avg_cpu_per_query.micros();
  v.row_bytes = sim.store().table(MakeTableId(0)).config.row_bytes();
  return v;
}

}  // namespace

int main() {
  bench::QuietLogs quiet;

  bench::Section("A.5 — de-quantization at load: cache-bound regime (tight FM)");
  bench::Table t({"variant", "stored row B", "hit %", "p95 ms", "CPU us/query"});
  {
    const VariantResult q = Run(false, 3 * kMiB, 4e9);
    const VariantResult d = Run(true, 3 * kMiB, 4e9);
    t.Row("int8 rows (dequant at run)", static_cast<uint64_t>(q.row_bytes),
          q.report.row_cache_hit_rate * 100, q.report.p95.millis(), q.cpu_us_per_query);
    t.Row("fp32 rows (dequant at load)", static_cast<uint64_t>(d.row_bytes),
          d.report.row_cache_hit_rate * 100, d.report.p95.millis(), d.cpu_us_per_query);
    t.Print();
    bench::Note(bench::Fmt("hit rate drops %.1f -> %.1f%%: 4x bigger cached rows "
                           "dominate — de-quantization loses (paper's common case)",
                           q.report.row_cache_hit_rate * 100,
                           d.report.row_cache_hit_rate * 100));
  }

  bench::Section("A.5 — CPU-bound regime (ample FM, slow dequant kernel)");
  bench::Table t2({"variant", "hit %", "p95 ms", "CPU us/query"});
  {
    // Plenty of FM (cache holds everything either way) + a 10x slower
    // dequant kernel: now run-time dequantization is the bottleneck.
    const VariantResult q = Run(false, 48 * kMiB, 0.4e9);
    const VariantResult d = Run(true, 48 * kMiB, 0.4e9);
    t2.Row("int8 rows (dequant at run)", q.report.row_cache_hit_rate * 100,
           q.report.p95.millis(), q.cpu_us_per_query);
    t2.Row("fp32 rows (dequant at load)", d.report.row_cache_hit_rate * 100,
           d.report.p95.millis(), d.cpu_us_per_query);
    t2.Print();
    bench::Note(bench::Fmt("CPU/query %.0f -> %.0f us: when FM is not the constraint, "
                           "loading fp32 saves the dequant kernel (paper's 'very CPU "
                           "bound' exception)",
                           q.cpu_us_per_query, d.cpu_us_per_query));
  }
  bench::Note("paper conclusion: pooled-embedding caching (§4.4) is the more selective");
  bench::Note("way to exploit cheap SM capacity than blanket de-quantization.");
  return 0;
}
