/** @file Unit tests for the multi-channel DRAM system facade. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/dram_system.hh"

namespace palermo {
namespace {

DramConfig
smallConfig()
{
    DramConfig config;
    config.org.channels = 4;
    config.org.rows = 1u << 10;
    config.queueDepth = 32;
    return config;
}

TEST(DramSystem, PeakBandwidthMatchesTableIII)
{
    DramSystem dram(smallConfig());
    EXPECT_DOUBLE_EQ(dram.peakBandwidthGBps(), 102.4);
    EXPECT_DOUBLE_EQ(dram.peakBytesPerTick(), 64.0);
}

TEST(DramSystem, SingleReadCompletes)
{
    DramSystem dram(smallConfig());
    ASSERT_TRUE(dram.enqueue(0x1000, false, 7));
    std::vector<Completion> done;
    for (int i = 0; i < 1000 && done.empty(); ++i) {
        dram.tick();
        for (const auto &c : dram.drainCompletions())
            done.push_back(c);
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 7u);
    EXPECT_EQ(dram.snapshot().reads, 1u);
}

TEST(DramSystem, CompletionsDrainInFinishOrder)
{
    DramSystem dram(smallConfig());
    Rng rng(1);
    for (std::uint64_t i = 0; i < 16; ++i)
        ASSERT_TRUE(dram.enqueue(rng.next() % (1 << 24) * 64, false, i));
    std::vector<Completion> done;
    for (int i = 0; i < 5000 && done.size() < 16; ++i) {
        dram.tick();
        for (const auto &c : dram.drainCompletions())
            done.push_back(c);
    }
    ASSERT_EQ(done.size(), 16u);
    for (std::size_t i = 1; i < done.size(); ++i)
        EXPECT_LE(done[i - 1].finishTick, done[i].finishTick);
}

TEST(DramSystem, StreamingSaturatesBandwidth)
{
    // Sequential lines interleave channels and walk open rows: the bus
    // should reach high utilization.
    DramSystem dram(smallConfig());
    Addr next_addr = 0;
    std::uint64_t completed = 0;
    const std::uint64_t target = 3000;
    std::uint64_t issued = 0;
    while (completed < target && dram.now() < 200000) {
        while (issued < target
               && dram.enqueue(next_addr, false, issued)) {
            next_addr += kBlockBytes;
            ++issued;
        }
        dram.tick();
        completed += dram.drainCompletions().size();
    }
    ASSERT_EQ(completed, target);
    EXPECT_GT(dram.snapshot().busUtilization(), 0.7);
    EXPECT_GT(dram.snapshot().rowHitRate(), 0.8);
}

TEST(DramSystem, RandomTrafficLowerUtilization)
{
    DramSystem dram(smallConfig());
    Rng rng(2);
    std::uint64_t completed = 0;
    const std::uint64_t target = 1500;
    std::uint64_t issued = 0;
    const std::uint64_t lines =
        smallConfig().org.capacityBytes() / kBlockBytes;
    while (completed < target && dram.now() < 400000) {
        while (issued < target
               && dram.enqueue(rng.range(lines) * kBlockBytes, false,
                               issued)) {
            ++issued;
        }
        dram.tick();
        completed += dram.drainCompletions().size();
    }
    ASSERT_EQ(completed, target);
    const DramSnapshot snap = dram.snapshot();
    EXPECT_LT(snap.rowHitRate(), 0.6);
    EXPECT_GT(snap.avgQueueOccupancy, 1.0);
}

TEST(DramSystem, ResetStatsKeepsState)
{
    DramSystem dram(smallConfig());
    ASSERT_TRUE(dram.enqueue(0, false, 1));
    for (int i = 0; i < 500; ++i)
        dram.tick();
    dram.drainCompletions();
    EXPECT_GT(dram.snapshot().reads, 0u);
    dram.resetStats();
    EXPECT_EQ(dram.snapshot().reads, 0u);
    EXPECT_GT(dram.now(), 0u); // Time itself is preserved.
}

TEST(DramSystem, OccupancyReflectsQueues)
{
    DramSystem dram(smallConfig());
    EXPECT_EQ(dram.occupancy(), 0u);
    ASSERT_TRUE(dram.enqueue(0, false, 1));
    ASSERT_TRUE(dram.enqueue(64, false, 2));
    EXPECT_EQ(dram.occupancy(), 2u);
}

TEST(DramSystem, WriteThenReadForwards)
{
    DramSystem dram(smallConfig());
    ASSERT_TRUE(dram.enqueue(0x2000, true, 0));
    ASSERT_TRUE(dram.enqueue(0x2000, false, 5));
    std::vector<Completion> done;
    for (int i = 0; i < 200 && done.empty(); ++i) {
        dram.tick();
        for (const auto &c : dram.drainCompletions())
            done.push_back(c);
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_TRUE(done[0].forwarded);
    EXPECT_EQ(dram.snapshot().forwardedReads, 1u);
}

TEST(DramSystem, SnapshotAggregatesAcrossChannels)
{
    DramSystem dram(smallConfig());
    // One read per channel (consecutive lines interleave).
    for (unsigned i = 0; i < 4; ++i)
        ASSERT_TRUE(dram.enqueue(i * kBlockBytes, false, i));
    std::uint64_t completed = 0;
    for (int i = 0; i < 1000 && completed < 4; ++i) {
        dram.tick();
        completed += dram.drainCompletions().size();
    }
    ASSERT_EQ(completed, 4u);
    EXPECT_EQ(dram.snapshot().reads, 4u);
    EXPECT_EQ(dram.snapshot().rowMisses, 4u);
}

TEST(DramSystem, TickWindowMatchesPerCycleTicks)
{
    // tickWindow advances channel-major (each channel runs the whole
    // window in turn); tick() advances cycle-major. With only writes
    // queued the window is legal, and both orders must land on the
    // same state. 20000 cycles crosses the first DDR4-3200 refresh
    // (tREFI = 12480).
    constexpr std::uint64_t kCycles = 20000;
    DramSystem batched(smallConfig());
    DramSystem stepped(smallConfig());
    Rng rng(5);
    bool channel_used[4] = {};
    for (std::uint64_t i = 0; i < 48; ++i) {
        const Addr addr = rng.next() % (1 << 24) * kBlockBytes;
        ASSERT_TRUE(batched.enqueue(addr, true, i));
        ASSERT_TRUE(stepped.enqueue(addr, true, i));
        channel_used[batched.addressMap().decode(addr).channel] = true;
    }
    int channels_used = 0;
    for (const bool used : channel_used)
        channels_used += used ? 1 : 0;
    ASSERT_GE(channels_used, 2);
    ASSERT_TRUE(batched.readQuiescent());

    const std::uint64_t integral = batched.tickWindow(kCycles);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kCycles; ++i) {
        stepped.tick();
        sum += stepped.occupancy();
    }

    EXPECT_EQ(integral, sum);
    EXPECT_EQ(batched.now(), stepped.now());
    EXPECT_EQ(batched.occupancy(), stepped.occupancy());
    const DramSnapshot a = batched.snapshot();
    const DramSnapshot b = stepped.snapshot();
    EXPECT_GT(a.writes, 0u);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.rowConflicts, b.rowConflicts);
    EXPECT_EQ(a.forwardedReads, b.forwardedReads);
    EXPECT_EQ(a.busBusyTicks, b.busBusyTicks);
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_EQ(a.avgQueueOccupancy, b.avgQueueOccupancy);
    EXPECT_EQ(a.avgReadLatency, b.avgReadLatency);
}

} // namespace
} // namespace palermo
