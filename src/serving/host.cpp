#include "serving/host.h"

namespace sdm {

HostSpec MakeHwL() {
  HostSpec h;
  h.name = "HW-L";
  h.cpu_sockets = 2;
  h.dram = 256 * kGiB;
  h.power = 1.0;
  h.dense_flops = 2.0e10;  // per-core
  return h;
}

HostSpec MakeHwS() {
  HostSpec h;
  h.name = "HW-S";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.power = 0.15;  // 0.25 of an HW-AN (0.6) in Table 9's normalization
  h.dense_flops = 2.0e10;
  return h;
}

HostSpec MakeHwSS() {
  HostSpec h;
  h.name = "HW-SS";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.ssds = {MakeNandFlashSpec(2000 * kGiB), MakeNandFlashSpec(2000 * kGiB)};
  h.power = 0.4;  // Table 8
  h.dense_flops = 2.0e10;
  return h;
}

HostSpec MakeHwAN() {
  HostSpec h;
  h.name = "HW-AN";
  h.cpu_sockets = 1;
  h.dram = 64 * kGiB;
  h.ssds = {MakeNandFlashSpec(1000 * kGiB), MakeNandFlashSpec(1000 * kGiB)};
  h.accelerator = true;
  h.power = 0.6;  // accelerated host; Table 9 normalizes this to 1.0
  h.dense_flops = 2.0e12;  // accelerator executes the dense part
  return h;
}

HostSpec MakeHwAO() {
  HostSpec h = MakeHwAN();
  h.name = "HW-AO";
  h.ssds = {MakeOptaneSsdSpec(400 * kGiB), MakeOptaneSsdSpec(400 * kGiB)};
  h.power = 0.6;  // Optane SSDs add ~nothing at host scale
  return h;
}

HostSpec MakeHwF() {
  HostSpec h;
  h.name = "HW-FA";
  h.cpu_sockets = 2;
  h.dram = 256 * kGiB;
  h.accelerator = true;
  h.power = 1.0;
  h.dense_flops = 2.0e13;  // next-gen accelerator
  return h;
}

HostSpec MakeHwFAO(int num_optane_ssds) {
  HostSpec h = MakeHwF();
  h.name = "HW-FAO";
  for (int i = 0; i < num_optane_ssds; ++i) {
    h.ssds.push_back(MakeOptaneSsdSpec(400 * kGiB));
  }
  // Table 11: the Optane complement costs ~1% of host power.
  h.power = 1.01;
  return h;
}

InferenceConfig HostInferenceConfig(const HostSimConfig& config) {
  InferenceConfig icfg = config.inference;
  icfg.accelerator = config.host.accelerator;
  icfg.dense.flops_per_sec = config.host.dense_flops;
  // One in-flight query occupies roughly one core; defaulting the admission
  // limit to the core count makes Eq. 5's compute bound emerge from the
  // simulation instead of being bolted on.
  if (icfg.max_concurrent_queries <= 0) {
    icfg.max_concurrent_queries = config.host.cores();
  }
  return icfg;
}

}  // namespace sdm
