// Tests for src/device: Table 1 specs, loaded-latency model, simulated NVMe
// device (block + sub-block reads, read amplification, wear), DRAM device.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/event_loop.h"
#include "device/device_spec.h"
#include "device/dram_device.h"
#include "device/endurance.h"
#include "device/latency_model.h"
#include "device/nvme_device.h"
#include "resident_memory.h"

namespace sdm {
namespace {

// ---------------------------------------------------------------------------
// DeviceSpec (Table 1).
// ---------------------------------------------------------------------------

TEST(DeviceSpec, Table1Ordering) {
  const auto nand = MakeNandFlashSpec();
  const auto optane = MakeOptaneSsdSpec();
  const auto zssd = MakeZssdSpec();
  const auto dimm = MakeDimmOptaneSpec();
  const auto cxl = MakeCxlOptaneSpec();

  // IOPS: nand < zssd < optane < cxl (Table 1 column 2).
  EXPECT_LT(nand.max_read_iops, zssd.max_read_iops);
  EXPECT_LT(zssd.max_read_iops, optane.max_read_iops);
  EXPECT_LT(optane.max_read_iops, cxl.max_read_iops);

  // Latency: dimm < cxl < optane < zssd <= nand.
  EXPECT_LT(dimm.base_read_latency, cxl.base_read_latency);
  EXPECT_LT(cxl.base_read_latency, optane.base_read_latency);
  EXPECT_LT(optane.base_read_latency, zssd.base_read_latency);
  EXPECT_LE(zssd.base_read_latency, nand.base_read_latency);

  // Cost per GB: everything cheaper than DRAM; nand cheapest.
  EXPECT_LT(nand.cost_per_gb_rel_dram, optane.cost_per_gb_rel_dram);
  EXPECT_LT(optane.cost_per_gb_rel_dram, 1.0);

  // Endurance: optane >> nand.
  EXPECT_GT(optane.endurance_dwpd, nand.endurance_dwpd);

  // Access granularity: optane sub-4K, nand 4K.
  EXPECT_EQ(nand.access_granularity, kBlockSize);
  EXPECT_LT(optane.access_granularity, kBlockSize);
}

TEST(DeviceSpec, Table1HasFiveRows) {
  const auto specs = Table1Specs();
  ASSERT_EQ(specs.size(), 5u);
  EXPECT_EQ(specs[0].technology, Technology::kNandFlash);
  EXPECT_EQ(specs[1].technology, Technology::kOptaneSsd);
}

TEST(DeviceSpec, DescribeMentionsTechnology) {
  EXPECT_NE(MakeNandFlashSpec().Describe().find("Nand"), std::string::npos);
  EXPECT_NE(MakeOptaneSsdSpec().Describe().find("Optane"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LatencyModel.
// ---------------------------------------------------------------------------

TEST(LatencyModel, UnloadedLatencyNearBase) {
  const auto spec = MakeOptaneSsdSpec();
  LatencyModel m(spec, 1);
  const SimTime done = m.CompleteRead(SimTime(0), 512);
  // One IO on an idle device ~ base latency (+ tiny bus time).
  EXPECT_GE(done.nanos(), spec.base_read_latency.nanos() * 0.5);
  EXPECT_LE(done.nanos(), spec.base_read_latency.nanos() * 2.5);
}

TEST(LatencyModel, LatencyGrowsWithLoad) {
  const auto spec = MakeNandFlashSpec();
  // Offered >> capacity: queueing delay must accumulate.
  LatencyModel m(spec, 2);
  SimDuration first;
  SimDuration last;
  for (int i = 0; i < 2000; ++i) {
    const SimTime now(0);  // all arrive at once
    const SimTime done = m.CompleteRead(now, 4096);
    if (i == 0) first = done - now;
    last = done - now;
  }
  EXPECT_GT(last.nanos(), first.nanos() * 5);
}

TEST(LatencyModel, ThroughputCapMatchesSpec) {
  const auto spec = MakeOptaneSsdSpec();
  LatencyModel m(spec, 3);
  // Saturate: N IOs at t=0; the last completion time bounds throughput.
  const int n = 100'000;
  SimTime last(0);
  for (int i = 0; i < n; ++i) last = std::max(last, m.CompleteRead(SimTime(0), 512));
  const double achieved_iops = n / last.seconds();
  EXPECT_NEAR(achieved_iops, spec.max_read_iops, spec.max_read_iops * 0.15);
}

TEST(LatencyModel, OptaneFasterThanNandUnderLoad) {
  const auto nand_spec = MakeNandFlashSpec();
  const auto optane_spec = MakeOptaneSsdSpec();
  LatencyModel nand(nand_spec, 4);
  LatencyModel optane(optane_spec, 4);
  // Same moderate offered load (200K IOPS for 10ms = 2000 IOs).
  SimDuration nand_total;
  SimDuration optane_total;
  for (int i = 0; i < 2000; ++i) {
    const SimTime now(i * 5000);  // 5us spacing = 200K IOPS
    nand_total += nand.CompleteRead(now, 4096) - now;
    optane_total += optane.CompleteRead(now, 512) - now;
  }
  EXPECT_LT(optane_total.nanos(), nand_total.nanos() / 3);
}

TEST(LatencyModel, QueueDelayEstimateNonNegative) {
  LatencyModel m(MakeNandFlashSpec(), 5);
  EXPECT_EQ(m.EstimatedQueueDelay(SimTime(0)).nanos(), 0);
  for (int i = 0; i < 500; ++i) (void)m.CompleteRead(SimTime(0), 4096);
  EXPECT_GT(m.EstimatedQueueDelay(SimTime(0)).nanos(), 0);
  EXPECT_GT(m.InFlight(SimTime(0)), 0);
}

// ---------------------------------------------------------------------------
// WearTracker.
// ---------------------------------------------------------------------------

TEST(Wear, DriveWritesAccumulate) {
  WearTracker w(1000, 1.0);
  w.RecordWrite(500);
  EXPECT_DOUBLE_EQ(w.DriveWrites(), 0.5);
  w.RecordWrite(1500);
  EXPECT_DOUBLE_EQ(w.DriveWrites(), 2.0);
}

TEST(Wear, SustainsIntervalWithinBudget) {
  // 1 DWPD on a 1TB drive; 100GB model => 10 updates/day max => >=144min.
  WearTracker w(1000 * kGiB, 1.0);
  EXPECT_TRUE(w.SustainsUpdateInterval(100 * kGiB, 144.0));
  EXPECT_FALSE(w.SustainsUpdateInterval(100 * kGiB, 100.0));
  EXPECT_NEAR(w.MinUpdateIntervalMinutes(100 * kGiB), 144.0, 0.01);
}

TEST(Wear, UnlimitedEnduranceAlwaysSustains) {
  WearTracker w(1000, 0.0);
  EXPECT_TRUE(w.SustainsUpdateInterval(1 << 30, 0.001));
  EXPECT_DOUBLE_EQ(w.MinUpdateIntervalMinutes(1 << 30), 0.0);
}

TEST(Wear, PaperFormulaMatchesHandComputation) {
  // 2TB nand at 5 DWPD serving a 143GB model: interval ~ 0.0143 days.
  WearTracker w(2000 * kGiB, 5.0);
  EXPECT_NEAR(w.UpdateIntervalPaperFormulaDays(143 * kGiB), 143.0 / (5 * 2000), 1e-6);
}

TEST(Wear, OptaneAllowsMoreFrequentUpdatesThanNand) {
  const auto nand = MakeNandFlashSpec();
  const auto optane = MakeOptaneSsdSpec();
  WearTracker wn(nand.capacity, nand.endurance_dwpd);
  WearTracker wo(optane.capacity, optane.endurance_dwpd);
  const Bytes model = 100 * kGiB;
  EXPECT_GT(wo.dwpd(), wn.dwpd());
  // Per-GB endurance: optane's 100 DWPD on 400GB still beats nand's 5 DWPD
  // on 2TB for update frequency.
  EXPECT_LT(wo.MinUpdateIntervalMinutes(model), wn.MinUpdateIntervalMinutes(model));
}

// ---------------------------------------------------------------------------
// NvmeDevice.
// ---------------------------------------------------------------------------

class NvmeDeviceTest : public ::testing::Test {
 protected:
  NvmeDeviceTest() : dev_(MakeOptaneSsdSpec(), 1 * kMiB, &loop_, 7) {
    // Deterministic content: byte i = i & 0xFF.
    std::vector<uint8_t> data(1 * kMiB);
    for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
    EXPECT_TRUE(dev_.Write(0, data).ok());
  }

  EventLoop loop_;
  NvmeDevice dev_;
};

TEST_F(NvmeDeviceTest, BusBytesBlockMode) {
  EXPECT_EQ(NvmeDevice::BusBytes(0, 128, false), kBlockSize);
  EXPECT_EQ(NvmeDevice::BusBytes(4090, 10, false), 2 * kBlockSize);
  EXPECT_EQ(NvmeDevice::BusBytes(kBlockSize, kBlockSize, false), kBlockSize);
  EXPECT_EQ(NvmeDevice::BusBytes(0, 0, false), 0u);
}

TEST_F(NvmeDeviceTest, BusBytesSubBlockMode) {
  EXPECT_EQ(NvmeDevice::BusBytes(0, 128, true), 128u);
  EXPECT_EQ(NvmeDevice::BusBytes(2, 4, true), 8u);   // dword-aligned window
  EXPECT_EQ(NvmeDevice::BusBytes(0, 1, true), 4u);
  EXPECT_EQ(NvmeDevice::BusBytes(3, 6, true), 12u);  // [0,12) covers [3,9)
}

TEST_F(NvmeDeviceTest, SubBlockReadReturnsExactBytes) {
  std::vector<uint8_t> dest(128);
  bool done = false;
  NvmeDevice::ReadRequest req;
  req.offset = 512;
  req.length = 128;
  req.sub_block = true;
  req.dest = dest;
  req.on_complete = [&](Status s, SimDuration lat) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_GT(lat.nanos(), 0);
    done = true;
  };
  dev_.SubmitRead(std::move(req));
  loop_.RunUntilIdle();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < dest.size(); ++i) {
    EXPECT_EQ(dest[i], static_cast<uint8_t>(512 + i));
  }
}

TEST_F(NvmeDeviceTest, BlockReadReturnsWholeBlocks) {
  std::vector<uint8_t> dest(kBlockSize);
  bool done = false;
  NvmeDevice::ReadRequest req;
  req.offset = 100;
  req.length = 64;
  req.sub_block = false;
  req.dest = dest;
  req.on_complete = [&](Status s, SimDuration) {
    ASSERT_TRUE(s.ok());
    done = true;
  };
  dev_.SubmitRead(std::move(req));
  loop_.RunUntilIdle();
  ASSERT_TRUE(done);
  // Whole first block arrives; useful data at offset 100.
  EXPECT_EQ(dest[0], 0);
  EXPECT_EQ(dest[100], 100);
  EXPECT_EQ(dest[163], static_cast<uint8_t>(163));
}

TEST_F(NvmeDeviceTest, ReadAmplificationBlockVsSubBlock) {
  // 64 small reads in block mode: 4KB each over the bus for 128B useful.
  for (int i = 0; i < 64; ++i) {
    std::vector<uint8_t> dest(kBlockSize);
    NvmeDevice::ReadRequest req;
    req.offset = static_cast<Bytes>(i) * 8192;
    req.length = 128;
    req.sub_block = false;
    req.dest = dest;
    req.on_complete = [](Status, SimDuration) {};
    dev_.SubmitRead(std::move(req));
    loop_.RunUntilIdle();
  }
  EXPECT_NEAR(dev_.ReadAmplification(), 32.0, 0.5);  // 4096/128
}

TEST_F(NvmeDeviceTest, SubBlockSavesBusBytes) {
  uint64_t before = dev_.stats().CounterValue("bus_bytes");
  std::vector<uint8_t> dest(128);
  NvmeDevice::ReadRequest req;
  req.offset = 0;
  req.length = 128;
  req.sub_block = true;
  req.dest = dest;
  req.on_complete = [](Status, SimDuration) {};
  dev_.SubmitRead(std::move(req));
  loop_.RunUntilIdle();
  EXPECT_EQ(dev_.stats().CounterValue("bus_bytes") - before, 128u);
}

TEST_F(NvmeDeviceTest, OutOfRangeReadFailsViaCallback) {
  std::vector<uint8_t> dest(128);
  Status got;
  NvmeDevice::ReadRequest req;
  req.offset = 2 * kMiB;  // beyond 1MiB backing
  req.length = 128;
  req.sub_block = true;
  req.dest = dest;
  req.on_complete = [&](Status s, SimDuration) { got = s; };
  dev_.SubmitRead(std::move(req));
  loop_.RunUntilIdle();
  EXPECT_EQ(got.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dev_.stats().CounterValue("read_errors"), 1u);
}

TEST_F(NvmeDeviceTest, WrongDestSizeFails) {
  std::vector<uint8_t> dest(100);  // should be 128 for sub-block
  Status got;
  NvmeDevice::ReadRequest req;
  req.offset = 0;
  req.length = 128;
  req.sub_block = true;
  req.dest = dest;
  req.on_complete = [&](Status s, SimDuration) { got = s; };
  dev_.SubmitRead(std::move(req));
  loop_.RunUntilIdle();
  EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
}

TEST_F(NvmeDeviceTest, ZeroLengthReadFails) {
  Status got;
  NvmeDevice::ReadRequest req;
  req.offset = 0;
  req.length = 0;
  req.sub_block = true;
  req.on_complete = [&](Status s, SimDuration) { got = s; };
  dev_.SubmitRead(std::move(req));
  loop_.RunUntilIdle();
  EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
}

TEST_F(NvmeDeviceTest, SubBlockUnsupportedDeviceRejects) {
  DeviceSpec spec = MakeNandFlashSpec();
  spec.supports_sub_block = false;
  NvmeDevice dev(spec, 64 * kKiB, &loop_, 9);
  std::vector<uint8_t> dest(128);
  Status got;
  NvmeDevice::ReadRequest req;
  req.offset = 0;
  req.length = 128;
  req.sub_block = true;
  req.dest = dest;
  req.on_complete = [&](Status s, SimDuration) { got = s; };
  dev.SubmitRead(std::move(req));
  loop_.RunUntilIdle();
  EXPECT_EQ(got.code(), StatusCode::kFailedPrecondition);
}

TEST_F(NvmeDeviceTest, WriteTracksWearAndTime) {
  std::vector<uint8_t> data(64 * kKiB, 0xAB);
  const auto before = dev_.wear().bytes_written();
  const auto result = dev_.Write(0, data);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().nanos(), 0);
  EXPECT_EQ(dev_.wear().bytes_written() - before, 64 * kKiB);
}

TEST_F(NvmeDeviceTest, WriteBeyondStoreFails) {
  std::vector<uint8_t> data(16);
  EXPECT_FALSE(dev_.Write(1 * kMiB - 8, data).ok());
}

TEST_F(NvmeDeviceTest, WrappingOffsetsAreOutOfRange) {
  // offset + 16 wraps past zero; the check must not, or the copy runs
  // far outside the backing store.
  constexpr Bytes kOffset = UINT64_MAX - 8;
  const std::vector<uint8_t> data(16, 0x5a);
  EXPECT_EQ(dev_.Write(kOffset, data).status().code(), StatusCode::kOutOfRange);

  // A sub-block read whose (wrapped) bus size matches its buffer gets past
  // every other check.
  std::vector<uint8_t> dest(NvmeDevice::BusBytes(kOffset, 16, true));
  Status got;
  NvmeDevice::ReadRequest req;
  req.offset = kOffset;
  req.length = 16;
  req.sub_block = true;
  req.dest = dest;
  req.on_complete = [&](Status s, SimDuration) { got = s; };
  dev_.SubmitRead(std::move(req));
  loop_.RunUntilIdle();
  EXPECT_EQ(got.code(), StatusCode::kOutOfRange);
}

TEST(NvmeChecksums, StampsMatchPerBlockRecomputation) {
  EventLoop loop;
  NvmeDevice dev(MakeNandFlashSpec(), 64 * kBlockSize + 100, &loop, 3);
  dev.set_checksums(true);
  ASSERT_EQ(dev.block_crcs().size(), 64u);  // the partial tail block stays unstamped
  // Unaligned writes inside one block, across blocks and into the tail.
  std::vector<uint8_t> data(3 * kBlockSize + 77);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i * 7 + 1);
  ASSERT_TRUE(dev.Write(5 * kBlockSize + 13, data).ok());
  ASSERT_TRUE(dev.Write(20 * kBlockSize + 1000, std::span(data).first(10)).ok());
  ASSERT_TRUE(dev.Write(64 * kBlockSize - 50, std::span(data).first(120)).ok());
  const auto backing = dev.backing();
  for (size_t b = 0; b < dev.block_crcs().size(); ++b) {
    EXPECT_EQ(dev.block_crcs()[b],
              NvmeDevice::BlockCrc(backing.subspan(b * kBlockSize, kBlockSize)))
        << "block " << b;
  }
  EXPECT_NE(dev.block_crcs()[5], dev.block_crcs()[0]);
}

TEST(SparseBacking, GibDevicesCommitOnlyWhatIsWritten) {
  constexpr Bytes kBacking = 1 * kGiB;
  const std::vector<uint8_t> chunk(1 * kMiB, 0xab);
  const auto all_zero = [](std::span<const uint8_t> s) {
    return std::all_of(s.begin(), s.end(), [](uint8_t b) { return b == 0; });
  };
  {
    const int64_t before = ResidentBytes();
    ASSERT_GT(before, 0);
    EventLoop loop;
    NvmeDevice dev(MakeNandFlashSpec(), kBacking, &loop, 1);
    ASSERT_TRUE(dev.Write(kBacking / 2, chunk).ok());
    const auto backing = dev.backing();
    EXPECT_TRUE(all_zero(backing.first(4 * kMiB)));
    EXPECT_TRUE(all_zero(backing.subspan(kBacking / 2 - kBlockSize, kBlockSize)));
    EXPECT_TRUE(all_zero(backing.last(4 * kMiB)));
    EXPECT_EQ(backing[kBacking / 2 + kMiB - 1], 0xab);
    const int64_t mapped = MappedResidentBytes(backing);
    ASSERT_GE(mapped, 0);
    EXPECT_LT(mapped, static_cast<int64_t>(32 * kMiB));
    if (!kRssCountsSanitizerShadow) {
      EXPECT_LT(ResidentBytes() - before, static_cast<int64_t>(32 * kMiB));
    }
  }
  {
    const int64_t before = ResidentBytes();
    DramDevice dram(kBacking);
    ASSERT_TRUE(dram.Write(kBacking / 2, chunk).ok());
    std::vector<uint8_t> out(4 * kMiB, 0xff);
    ASSERT_TRUE(dram.Read(0, out).ok());
    EXPECT_TRUE(all_zero(out));
    ASSERT_TRUE(dram.Read(kBacking - out.size(), out).ok());
    EXPECT_TRUE(all_zero(out));
    const auto view = dram.View(kBacking / 2, kMiB);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view.value().back(), 0xab);
    const auto whole = dram.View(0, kBacking);
    ASSERT_TRUE(whole.ok());
    const int64_t mapped = MappedResidentBytes(whole.value());
    ASSERT_GE(mapped, 0);
    EXPECT_LT(mapped, static_cast<int64_t>(32 * kMiB));
    if (!kRssCountsSanitizerShadow) {
      EXPECT_LT(ResidentBytes() - before, static_cast<int64_t>(32 * kMiB));
    }
  }
}

TEST_F(NvmeDeviceTest, LatencyHistogramPopulates) {
  std::vector<uint8_t> dest(512);
  for (int i = 0; i < 50; ++i) {
    NvmeDevice::ReadRequest req;
    req.offset = 0;
    req.length = 512;
    req.sub_block = true;
    req.dest = dest;
    req.on_complete = [](Status, SimDuration) {};
    dev_.SubmitRead(std::move(req));
  }
  loop_.RunUntilIdle();
  EXPECT_EQ(dev_.read_latency().count(), 50u);
  EXPECT_GT(dev_.read_latency().P50(), 0);
}

// Completion ordering: a later-submitted IO must not complete before an
// earlier one submitted at the same instant on an idle device (FIFO).
TEST_F(NvmeDeviceTest, FifoCompletionForEqualArrivals) {
  std::vector<int> order;
  std::vector<uint8_t> d1(512);
  std::vector<uint8_t> d2(512);
  for (int i = 0; i < 2; ++i) {
    NvmeDevice::ReadRequest req;
    req.offset = 0;
    req.length = 512;
    req.sub_block = true;
    req.dest = i == 0 ? std::span<uint8_t>(d1) : std::span<uint8_t>(d2);
    req.on_complete = [&order, i](Status, SimDuration) { order.push_back(i); };
    dev_.SubmitRead(std::move(req));
  }
  loop_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------------
// DramDevice.
// ---------------------------------------------------------------------------

TEST(DramDevice, RoundTrip) {
  DramDevice dram(64 * kKiB);
  std::vector<uint8_t> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(dram.Write(100, data).ok());
  std::vector<uint8_t> out(5);
  auto r = dram.Read(100, out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(out, data);
  EXPECT_GT(r.value().nanos(), 0);
}

TEST(DramDevice, ViewIsZeroCopy) {
  DramDevice dram(4096);
  std::vector<uint8_t> data = {9, 8, 7};
  ASSERT_TRUE(dram.Write(0, data).ok());
  auto v = dram.View(0, 3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value()[2], 7);
}

TEST(DramDevice, OutOfRangeFails) {
  DramDevice dram(128);
  std::vector<uint8_t> buf(64);
  EXPECT_FALSE(dram.Read(100, buf).ok());
  EXPECT_FALSE(dram.Write(100, buf).ok());
  EXPECT_FALSE(dram.View(100, 64).ok());
}

TEST(DramDevice, WrappingOffsetsAreOutOfRange) {
  DramDevice dram(4096);
  constexpr Bytes kOffset = UINT64_MAX - 8;
  std::vector<uint8_t> buf(16);
  EXPECT_EQ(dram.Write(kOffset, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dram.Read(kOffset, buf).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dram.View(kOffset, 16).status().code(), StatusCode::kOutOfRange);
}

TEST(DramDevice, LatencyFarBelowSsd) {
  DramDevice dram(4096);
  const auto optane = MakeOptaneSsdSpec();
  EXPECT_LT(dram.AccessLatency(128).nanos(), optane.base_read_latency.nanos() / 10);
}

}  // namespace
}  // namespace sdm
