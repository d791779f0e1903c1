// Failure-injection tests: media read errors propagate, retries absorb
// transient faults, and serving degrades gracefully instead of wedging.
#include <gtest/gtest.h>

#include "dlrm/model_zoo.h"
#include "io/direct_reader.h"
#include "serving/cluster.h"

namespace sdm {
namespace {

DeviceSpec FaultyOptane(double error_probability) {
  DeviceSpec spec = MakeOptaneSsdSpec();
  spec.read_error_probability = error_probability;
  return spec;
}

// ---------------------------------------------------------------------------
// Device level.
// ---------------------------------------------------------------------------

TEST(FaultInjection, DeviceSurfacesUnavailable) {
  EventLoop loop;
  NvmeDevice dev(FaultyOptane(1.0), 64 * kKiB, &loop, 3);
  std::vector<uint8_t> dest(128);
  Status got;
  NvmeDevice::ReadRequest req;
  req.offset = 0;
  req.length = 128;
  req.sub_block = true;
  req.dest = dest;
  req.on_complete = [&](Status s, SimDuration lat) {
    got = s;
    // The fault is discovered at completion: latency was still paid.
    EXPECT_GT(lat.nanos(), 0);
  };
  dev.SubmitRead(std::move(req));
  loop.RunUntilIdle();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
}

TEST(FaultInjection, ErrorRateRoughlyMatchesProbability) {
  EventLoop loop;
  NvmeDevice dev(FaultyOptane(0.2), 64 * kKiB, &loop, 5);
  int errors = 0;
  const int n = 2000;
  std::vector<uint8_t> dest(128);
  for (int i = 0; i < n; ++i) {
    NvmeDevice::ReadRequest req;
    req.offset = 0;
    req.length = 128;
    req.sub_block = true;
    req.dest = dest;
    req.on_complete = [&](Status s, SimDuration) {
      if (!s.ok()) ++errors;
    };
    dev.SubmitRead(std::move(req));
  }
  loop.RunUntilIdle();
  EXPECT_NEAR(static_cast<double>(errors) / n, 0.2, 0.04);
}

TEST(FaultInjection, HealthyDeviceNeverErrors) {
  EventLoop loop;
  NvmeDevice dev(MakeOptaneSsdSpec(), 64 * kKiB, &loop, 7);
  int errors = 0;
  std::vector<uint8_t> dest(128);
  for (int i = 0; i < 500; ++i) {
    NvmeDevice::ReadRequest req;
    req.offset = 0;
    req.length = 128;
    req.sub_block = true;
    req.dest = dest;
    req.on_complete = [&](Status s, SimDuration) {
      if (!s.ok()) ++errors;
    };
    dev.SubmitRead(std::move(req));
  }
  loop.RunUntilIdle();
  EXPECT_EQ(errors, 0);
}

// ---------------------------------------------------------------------------
// Reader retries.
// ---------------------------------------------------------------------------

TEST(FaultInjection, RetriesAbsorbTransientErrors) {
  EventLoop loop;
  NvmeDevice dev(FaultyOptane(0.3), 64 * kKiB, &loop, 9);
  std::vector<uint8_t> init(64 * kKiB, 0x5A);
  ASSERT_TRUE(dev.Write(0, init).ok());
  IoEngine engine(&dev, &loop, {});
  DirectReaderConfig rcfg;
  rcfg.max_retries = 4;  // error^5 ~ 0.24% residual failure
  DirectIoReader reader(&engine, rcfg);

  int ok = 0;
  int failed = 0;
  std::vector<std::unique_ptr<std::vector<uint8_t>>> bufs;
  for (int i = 0; i < 500; ++i) {
    auto buf = std::make_unique<std::vector<uint8_t>>(128);
    const std::span<uint8_t> dest(buf->data(), buf->size());
    bufs.push_back(std::move(buf));
    reader.ReadRow(0, dest, [&](Status s, SimDuration) {
      s.ok() ? ++ok : ++failed;
    });
    loop.RunUntilIdle();
  }
  EXPECT_GT(reader.retries(), 0u);
  EXPECT_GT(ok, 480);  // nearly everything recovers
  // Data from recovered reads is intact.
  EXPECT_EQ((*bufs.back())[0], 0x5A);
}

TEST(FaultInjection, RetryLatencyAccumulates) {
  EventLoop loop;
  NvmeDevice healthy(MakeOptaneSsdSpec(), 64 * kKiB, &loop, 11);
  NvmeDevice flaky(FaultyOptane(0.9), 64 * kKiB, &loop, 11);
  std::vector<uint8_t> init(64 * kKiB, 1);
  ASSERT_TRUE(healthy.Write(0, init).ok());
  ASSERT_TRUE(flaky.Write(0, init).ok());
  IoEngine e1(&healthy, &loop, {});
  IoEngine e2(&flaky, &loop, {});
  DirectReaderConfig rcfg;
  rcfg.max_retries = 20;
  DirectIoReader r1(&e1, rcfg);
  DirectIoReader r2(&e2, rcfg);
  std::vector<uint8_t> buf(128);
  SimDuration lat_healthy;
  SimDuration lat_flaky;
  r1.ReadRow(0, buf, [&](Status s, SimDuration l) {
    ASSERT_TRUE(s.ok());
    lat_healthy = l;
  });
  loop.RunUntilIdle();
  r2.ReadRow(0, buf, [&](Status s, SimDuration l) {
    if (s.ok()) lat_flaky = l;
  });
  loop.RunUntilIdle();
  // Each retry pays a full device round trip.
  EXPECT_GT(lat_flaky.nanos(), 2 * lat_healthy.nanos());
}

TEST(FaultInjection, NonRetryableErrorsSurfaceImmediately) {
  EventLoop loop;
  NvmeDevice dev(MakeOptaneSsdSpec(), 64 * kKiB, &loop, 13);
  IoEngine engine(&dev, &loop, {});
  DirectReaderConfig rcfg;
  rcfg.max_retries = 5;
  DirectIoReader reader(&engine, rcfg);
  std::vector<uint8_t> buf(128);
  Status got;
  reader.ReadRow(10 * kMiB, buf, [&](Status s, SimDuration) { got = s; });  // OOR
  loop.RunUntilIdle();
  EXPECT_EQ(got.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(reader.retries(), 0u);  // invalid requests are not retried
}

// ---------------------------------------------------------------------------
// End-to-end serving under faults.
// ---------------------------------------------------------------------------

TEST(FaultInjection, ServingDegradesGracefully) {
  ModelConfig model = MakeTinyUniformModel(16, 2, 1, 2000);
  HostSimConfig cfg;
  cfg.host = MakeHwAO();
  cfg.host.ssds = {FaultyOptane(0.05), FaultyOptane(0.05)};
  cfg.fm_capacity = 8 * kMiB;
  cfg.sm_backing_per_device = 16 * kMiB;
  HostSimulation sim(cfg);
  ASSERT_TRUE(sim.LoadModel(model).ok());
  const HostRunReport r = sim.Run(200, 500);
  // With 5% per-IO error and one retry, nearly every query still completes.
  EXPECT_GT(r.queries_completed, 490u);
  EXPECT_GT(r.achieved_qps, 0.0);
}

}  // namespace
}  // namespace sdm
