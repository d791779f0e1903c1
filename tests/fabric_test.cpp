// Tests for src/fabric: FabricLink timing semantics (latency, bandwidth
// serialization, per-hop FIFO queueing, full-duplex directions, the instant
// short-circuit), the IoEngine fabric hop, and FabricAttachedService
// host registration / ledger plumbing.
#include <gtest/gtest.h>

#include <vector>

#include "common/event_loop.h"
#include "fabric/fabric_attached_service.h"
#include "fabric/fabric_link.h"
#include "io/io_engine.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// FabricLink.
// ---------------------------------------------------------------------------

TEST(FabricLink, InstantLinkDeliversSynchronouslyButAccounts) {
  EventLoop loop;
  FabricLink link(FabricLinkConfig{}, &loop);
  ASSERT_TRUE(link.config().instant());
  bool delivered = false;
  link.Request(4096, [&] { delivered = true; });
  // Synchronous: no event was scheduled, no virtual time passed.
  EXPECT_TRUE(delivered);
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.Now().nanos(), 0);
  // Traffic is still accounted so instant links report would-be bytes.
  EXPECT_EQ(link.stats().requests, 1u);
  EXPECT_EQ(link.stats().request_bytes, 4096u);
}

TEST(FabricLink, LatencyDelaysDelivery) {
  EventLoop loop;
  FabricLinkConfig cfg;
  cfg.latency = Micros(5);
  FabricLink link(cfg, &loop);
  SimTime delivered_at;
  link.Request(64, [&] { delivered_at = loop.Now(); });
  EXPECT_EQ(loop.pending_events(), 1u);  // not synchronous any more
  loop.RunUntilIdle();
  EXPECT_EQ(delivered_at.nanos(), Micros(5).nanos());
}

TEST(FabricLink, BandwidthSerializesAndFifoQueues) {
  EventLoop loop;
  FabricLinkConfig cfg;
  cfg.latency = Micros(1);
  cfg.bandwidth_bytes_per_sec = 1e9;  // 4096 B -> 4096 ns on the wire
  cfg.queueing = true;
  FabricLink link(cfg, &loop);
  int64_t first = 0;
  int64_t second = 0;
  link.Response(4096, [&] { first = loop.Now().nanos(); });
  link.Response(4096, [&] { second = loop.Now().nanos(); });
  loop.RunUntilIdle();
  EXPECT_EQ(first, 4096 + Micros(1).nanos());
  // The second transfer waited for the first to leave the port.
  EXPECT_EQ(second, 2 * 4096 + Micros(1).nanos());
  EXPECT_EQ(link.stats().queue_time.nanos(), 4096);
}

TEST(FabricLink, QueueingOffOverlapsTransfers) {
  EventLoop loop;
  FabricLinkConfig cfg;
  cfg.latency = Micros(1);
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.queueing = false;
  FabricLink link(cfg, &loop);
  int64_t first = 0;
  int64_t second = 0;
  link.Response(4096, [&] { first = loop.Now().nanos(); });
  link.Response(4096, [&] { second = loop.Now().nanos(); });
  loop.RunUntilIdle();
  EXPECT_EQ(first, 4096 + Micros(1).nanos());
  EXPECT_EQ(second, 4096 + Micros(1).nanos());
  EXPECT_EQ(link.stats().queue_time.nanos(), 0);
}

TEST(FabricLink, DirectionsDoNotContend) {
  EventLoop loop;
  FabricLinkConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.queueing = true;
  FabricLink link(cfg, &loop);
  int64_t req = 0;
  int64_t resp = 0;
  link.Request(4096, [&] { req = loop.Now().nanos(); });
  link.Response(4096, [&] { resp = loop.Now().nanos(); });
  loop.RunUntilIdle();
  // Full duplex: neither waited for the other.
  EXPECT_EQ(req, 4096);
  EXPECT_EQ(resp, 4096);
  EXPECT_EQ(link.stats().queue_time.nanos(), 0);
}

// ---------------------------------------------------------------------------
// IoEngine fabric hop.
// ---------------------------------------------------------------------------

class FabricEngineFixture : public ::testing::Test {
 protected:
  /// Tail-free spec: the latency-equality asserts below need two reads of
  /// the same shape to cost exactly the same media time.
  static DeviceSpec DeterministicOptane() {
    DeviceSpec s = MakeOptaneSsdSpec();
    s.tail_probability = 0;
    s.read_error_probability = 0;
    return s;
  }

  FabricEngineFixture() : dev_(DeterministicOptane(), kStore, &loop_, 11) {
    std::vector<uint8_t> data(kStore);
    for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 7);
    EXPECT_TRUE(dev_.Write(0, data).ok());
  }

  static constexpr Bytes kStore = 4 * kMiB;
  EventLoop loop_;
  NvmeDevice dev_;
};

TEST_F(FabricEngineFixture, ReadPaysTheFabricRoundTrip) {
  // Same read on a local engine and on one behind a 10us one-way link.
  IoEngine local(&dev_, &loop_, {});
  std::vector<uint8_t> dest(256);
  SimDuration local_lat;
  local.SubmitRead(1024, 256, true, dest, [&](Status s, SimDuration lat) {
    ASSERT_TRUE(s.ok());
    local_lat = lat;
  });
  loop_.RunUntilIdle();

  FabricLinkConfig cfg;
  cfg.latency = Micros(10);
  FabricLink link(cfg, &loop_);
  IoEngine remote(&dev_, &loop_, {});
  remote.set_fabric_link(&link);
  SimDuration remote_lat;
  bool done = false;
  remote.SubmitRead(1024, 256, true, dest, [&](Status s, SimDuration lat) {
    ASSERT_TRUE(s.ok());
    remote_lat = lat;
    done = true;
  });
  loop_.RunUntilIdle();
  ASSERT_TRUE(done);
  // Exactly one SQE crossed and one payload came back.
  EXPECT_EQ(link.stats().requests, 1u);
  EXPECT_EQ(link.stats().responses, 1u);
  EXPECT_EQ(link.stats().response_bytes, 256u);
  // End-to-end latency covers both hops.
  EXPECT_EQ(remote_lat.nanos(), local_lat.nanos() + 2 * Micros(10).nanos());
  // Data still lands bit-exact.
  for (size_t i = 0; i < dest.size(); ++i) {
    EXPECT_EQ(dest[i], static_cast<uint8_t>((1024 + i) * 7));
  }
}

TEST_F(FabricEngineFixture, InstantLinkIsByteAndTimeIdentical) {
  IoEngine local(&dev_, &loop_, {});
  FabricLink link(FabricLinkConfig{}, &loop_);
  IoEngine remote(&dev_, &loop_, {});
  remote.set_fabric_link(&link);

  std::vector<uint8_t> dest_a(512);
  std::vector<uint8_t> dest_b(512);
  SimDuration lat_a;
  SimDuration lat_b;
  local.SubmitRead(2048, 512, true, dest_a, [&](Status s, SimDuration lat) {
    ASSERT_TRUE(s.ok());
    lat_a = lat;
  });
  loop_.RunUntilIdle();
  remote.SubmitRead(2048, 512, true, dest_b, [&](Status s, SimDuration lat) {
    ASSERT_TRUE(s.ok());
    lat_b = lat;
  });
  loop_.RunUntilIdle();
  EXPECT_EQ(lat_a.nanos(), lat_b.nanos());
  EXPECT_EQ(dest_a, dest_b);
}

TEST_F(FabricEngineFixture, BatchDoorbellCrossesOnce) {
  FabricLinkConfig cfg;
  cfg.latency = Micros(2);
  FabricLink link(cfg, &loop_);
  IoEngine engine(&dev_, &loop_, {});
  engine.set_fabric_link(&link);

  std::vector<std::vector<uint8_t>> bufs(8, std::vector<uint8_t>(256));
  int completed = 0;
  std::vector<IoEngine::ReadOp> ops;
  for (size_t i = 0; i < bufs.size(); ++i) {
    IoEngine::ReadOp op;
    op.offset = i * 4096;
    op.length = 256;
    op.sub_block = true;
    op.dest = bufs[i];
    op.cb = [&](Status s, SimDuration) {
      EXPECT_TRUE(s.ok());
      ++completed;
    };
    ops.push_back(std::move(op));
  }
  engine.SubmitBatch(ops);
  loop_.RunUntilIdle();
  EXPECT_EQ(completed, 8);
  // ONE doorbell message carried all 8 SQEs; 8 payloads crossed back.
  EXPECT_EQ(link.stats().requests, 1u);
  EXPECT_EQ(link.stats().request_bytes, 8u * 64u);
  EXPECT_EQ(link.stats().responses, 8u);
  EXPECT_EQ(link.stats().response_bytes, 8u * 256u);
}

// ---------------------------------------------------------------------------
// FabricAttachedService.
// ---------------------------------------------------------------------------

TEST(FabricService, AttachesHostsAndInstallsLinks) {
  EventLoop loop;
  FabricServiceConfig cfg;
  cfg.device.sm_specs = {MakeOptaneSsdSpec(), MakeOptaneSsdSpec()};
  cfg.device.sm_backing_bytes = {8 * kMiB, 8 * kMiB};
  cfg.link.latency = Micros(3);
  FabricAttachedService service(cfg, &loop);

  ASSERT_EQ(service.device_service().device_count(), 2u);
  // Every device engine got its own fabric port.
  for (size_t d = 0; d < service.device_service().device_count(); ++d) {
    EXPECT_EQ(service.device_service().io_engine(d).fabric_link(), &service.link(d));
  }
  const TenantId a = service.AttachHost();
  const TenantId b = service.AttachHost(TenantClass::kBackground);
  EXPECT_NE(a, b);
  EXPECT_EQ(service.host_count(), 2u);
  EXPECT_EQ(service.device_service().tenant_class(b), TenantClass::kBackground);
  // Fresh ledger: all zeroes.
  const TenantIoShare share = service.host_io_share(a);
  EXPECT_EQ(share.demand_reads, 0u);
  EXPECT_EQ(share.cross_tenant_hits, 0u);
}

TEST(DisaggregatedTuning, ValidateForDisaggregated) {
  TuningConfig t;
  EXPECT_TRUE(t.ValidateForDisaggregated().ok());
  t.fabric_latency = Micros(-1);
  EXPECT_EQ(t.ValidateForDisaggregated().code(), StatusCode::kInvalidArgument);
  t.fabric_latency = Micros(5);
  t.fabric_bandwidth_bytes_per_sec = -1;
  EXPECT_EQ(t.ValidateForDisaggregated().code(), StatusCode::kInvalidArgument);
  t.fabric_bandwidth_bytes_per_sec = 1e9;
  EXPECT_TRUE(t.ValidateForDisaggregated().ok());
  // Everything a shared device rejects stays rejected.
  t.io_batching = IoBatching::kPerRequest;
  EXPECT_EQ(t.ValidateForDisaggregated().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sdm
