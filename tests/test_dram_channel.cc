/** @file Unit tests for the per-channel FR-FCFS DRAM controller. */

#include <gtest/gtest.h>

#include "mem/channel.hh"

namespace palermo {
namespace {

DramOrg
org4()
{
    DramOrg org;
    org.channels = 1;
    org.ranks = 1;
    org.bankGroups = 2;
    org.banksPerGroup = 2;
    org.rows = 256;
    org.columnsPerRow = 32;
    return org;
}

DecodedAddr
at(unsigned bank_group, unsigned bank, std::uint64_t row, unsigned col)
{
    DecodedAddr dec{};
    dec.channel = 0;
    dec.rank = 0;
    dec.bankGroup = bank_group;
    dec.bank = bank;
    dec.row = row;
    dec.column = col;
    return dec;
}

// Run the channel until `count` completions arrive or `limit` ticks.
std::vector<Completion>
runUntil(Channel &channel, std::size_t count, Tick &now,
         Tick limit = 100000)
{
    std::vector<Completion> all;
    while (all.size() < count && now < limit) {
        channel.tick(now);
        ++now;
        for (const auto &c : channel.completions()) {
            if (c.finishTick <= now)
                all.push_back(c);
        }
        auto &list = channel.completions();
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](const Completion &c) {
                                      return c.finishTick <= now;
                                  }),
                   list.end());
    }
    return all;
}

TEST(Channel, SingleReadColdLatency)
{
    const DramTiming &t = ddr4_3200();
    Channel channel(org4(), t, 16);
    Tick now = 0;
    ASSERT_TRUE(channel.enqueue(at(0, 0, 1, 0), false, 42, now));
    const auto done = runUntil(channel, 1, now);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 42u);
    // Cold bank: ACT + tRCD + tCL + tBL.
    EXPECT_GE(done[0].finishTick, t.tRCD + t.tCL + t.tBL);
    EXPECT_LE(done[0].finishTick, t.tRCD + t.tCL + t.tBL + 4);
}

TEST(Channel, RowHitFasterThanConflict)
{
    const DramTiming &t = ddr4_3200();
    Channel hit_ch(org4(), t, 16);
    Tick now = 0;
    ASSERT_TRUE(hit_ch.enqueue(at(0, 0, 1, 0), false, 1, now));
    runUntil(hit_ch, 1, now);
    const Tick hit_start = now;
    ASSERT_TRUE(hit_ch.enqueue(at(0, 0, 1, 1), false, 2, now));
    runUntil(hit_ch, 1, now);
    const Tick hit_latency = now - hit_start;

    Channel conf_ch(org4(), t, 16);
    Tick now2 = 0;
    ASSERT_TRUE(conf_ch.enqueue(at(0, 0, 1, 0), false, 1, now2));
    runUntil(conf_ch, 1, now2);
    const Tick conf_start = now2;
    ASSERT_TRUE(conf_ch.enqueue(at(0, 0, 2, 0), false, 2, now2));
    runUntil(conf_ch, 1, now2);
    const Tick conf_latency = now2 - conf_start;

    EXPECT_LT(hit_latency, conf_latency);
    EXPECT_EQ(hit_ch.stats().rowHits.value(), 1u);
    EXPECT_EQ(conf_ch.stats().rowConflicts.value(), 1u);
}

TEST(Channel, ClassifiesColdMiss)
{
    Channel channel(org4(), ddr4_3200(), 16);
    Tick now = 0;
    ASSERT_TRUE(channel.enqueue(at(0, 0, 1, 0), false, 1, now));
    runUntil(channel, 1, now);
    EXPECT_EQ(channel.stats().rowMisses.value(), 1u);
}

TEST(Channel, WriteForwardingServesRead)
{
    Channel channel(org4(), ddr4_3200(), 16);
    Tick now = 0;
    ASSERT_TRUE(channel.enqueue(at(1, 1, 3, 5), true, 0, now));
    ASSERT_TRUE(channel.enqueue(at(1, 1, 3, 5), false, 9, now));
    EXPECT_EQ(channel.stats().forwardedReads.value(), 1u);
    // The forwarded completion appears without any DRAM read command.
    ASSERT_FALSE(channel.completions().empty());
    EXPECT_TRUE(channel.completions()[0].forwarded);
    EXPECT_EQ(channel.completions()[0].tag, 9u);
}

TEST(Channel, WriteCoalescing)
{
    Channel channel(org4(), ddr4_3200(), 16);
    Tick now = 0;
    ASSERT_TRUE(channel.enqueue(at(0, 1, 3, 5), true, 0, now));
    ASSERT_TRUE(channel.enqueue(at(0, 1, 3, 5), true, 0, now));
    EXPECT_EQ(channel.stats().coalescedWrites.value(), 1u);
    EXPECT_EQ(channel.occupancy(), 1u);
}

TEST(Channel, BackpressureWhenFull)
{
    Channel channel(org4(), ddr4_3200(), 2);
    Tick now = 0;
    EXPECT_TRUE(channel.enqueue(at(0, 0, 1, 0), false, 1, now));
    EXPECT_TRUE(channel.enqueue(at(0, 0, 2, 0), false, 2, now));
    EXPECT_FALSE(channel.enqueue(at(0, 0, 3, 0), false, 3, now));
}

TEST(Channel, FrFcfsPrefersRowHitOverOlderConflict)
{
    // Oldest request conflicts with the open row; a younger row hit to
    // the same bank must be served first.
    Channel channel(org4(), ddr4_3200(), 16);
    Tick now = 0;
    ASSERT_TRUE(channel.enqueue(at(0, 0, 1, 0), false, 1, now));
    runUntil(channel, 1, now); // Row 1 now open.
    ASSERT_TRUE(channel.enqueue(at(0, 0, 2, 0), false, 2, now)); // conflict
    ASSERT_TRUE(channel.enqueue(at(0, 0, 1, 7), false, 3, now)); // hit
    const auto done = runUntil(channel, 2, now);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].tag, 3u);
    EXPECT_EQ(done[1].tag, 2u);
}

TEST(Channel, WritesEventuallyDrain)
{
    Channel channel(org4(), ddr4_3200(), 16);
    Tick now = 0;
    for (unsigned i = 0; i < 8; ++i)
        ASSERT_TRUE(channel.enqueue(at(0, 0, 1, i), true, 0, now));
    for (; now < 20000 && channel.occupancy() > 0;) {
        channel.tick(now);
        ++now;
    }
    EXPECT_EQ(channel.occupancy(), 0u);
    EXPECT_EQ(channel.stats().writes.value(), 8u);
}

TEST(Channel, RefreshHappens)
{
    Channel channel(org4(), ddr4_3200(), 16);
    Tick now = 0;
    for (; now < 2 * ddr4_3200().tREFI;) {
        channel.tick(now);
        ++now;
    }
    EXPECT_GE(channel.stats().refreshes.value(), 1u);
}

TEST(Channel, QueueOccupancyTracked)
{
    Channel channel(org4(), ddr4_3200(), 16);
    Tick now = 0;
    ASSERT_TRUE(channel.enqueue(at(0, 0, 1, 0), false, 1, now));
    ASSERT_TRUE(channel.enqueue(at(0, 0, 1, 1), false, 2, now));
    channel.tick(now);
    EXPECT_GT(channel.stats().queueOccupancy.mean(), 0.0);
}

TEST(Channel, BusBusyTicksAccumulate)
{
    Channel channel(org4(), ddr4_3200(), 16);
    Tick now = 0;
    ASSERT_TRUE(channel.enqueue(at(0, 0, 1, 0), false, 1, now));
    runUntil(channel, 1, now);
    // Run a little longer so the data burst interval fully passes.
    for (Tick end = now + 16; now < end; ++now)
        channel.tick(now);
    EXPECT_GE(channel.stats().busBusyTicks.value(), ddr4_3200().tBL - 1);
}

} // namespace
} // namespace palermo
