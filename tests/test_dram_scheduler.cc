/**
 * @file
 * The slot-bitmask FR-FCFS Channel against the entry-scan scheduler it
 * replaced. The reference below walks its request queues in age order on
 * every tick, exactly as the old channel did: row hits first (oldest
 * that clears every CAS gate), then the oldest activate, then the
 * oldest precharge of a row nobody wants, with write forwarding, write
 * coalescing, write-drain hysteresis and all-bank refresh. Both are fed
 * identical seeded traffic and must agree on every tick.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <ostream>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "mem/channel.hh"

namespace palermo {
namespace {

/** Entry-scan FR-FCFS channel, written against Bank/DramTiming only. */
class ReferenceChannel
{
  public:
    ReferenceChannel(const DramOrg &org, const DramTiming &timing,
                     unsigned queue_depth)
        : org_(org), t_(timing), depth_(queue_depth),
          banks_(org.banksPerChannel()), nextRefresh_(timing.tREFI),
          drainHigh_(std::max(2u, queue_depth * 3 / 4)),
          drainLow_(std::max(1u, queue_depth / 4))
    {
    }

    bool
    enqueue(const DecodedAddr &dec, bool is_write, std::uint64_t tag,
            Tick now)
    {
        const unsigned bank = dec.flatBank(org_);
        for (const Entry &e : writes_) {
            if (e.bank != bank || e.dec.row != dec.row
                || e.dec.column != dec.column) {
                continue;
            }
            if (is_write) {
                stats.coalescedWrites.inc();
                return true;
            }
            stats.forwardedReads.inc();
            stats.reads.inc();
            completions.push_back({tag, now + t_.tCL, true});
            stats.readLatency.sample(static_cast<double>(t_.tCL));
            return true;
        }
        std::deque<Entry> &queue = is_write ? writes_ : reads_;
        if (queue.size() >= depth_)
            return false;
        queue.push_back({dec, tag, now, bank});
        if (is_write)
            stats.writes.inc();
        return true;
    }

    void
    tick(Tick now)
    {
        stats.totalTicks.inc();
        stats.queueOccupancy.accumulate(static_cast<double>(occupancy()),
                                        1);
        while (!busEvents_.empty() && busEvents_.top().first <= now) {
            activeTransfers_ += busEvents_.top().second;
            busEvents_.pop();
        }
        busActive = activeTransfers_ > 0;
        if (busActive)
            stats.busBusyTicks.inc();

        if (refreshPending_ || now >= nextRefresh_) {
            refresh(now);
            return;
        }
        if (!writeMode_) {
            writeMode_ = writes_.size() >= drainHigh_
                || (reads_.empty() && !writes_.empty());
        } else {
            writeMode_ = !(writes_.size() <= drainLow_
                           || (writes_.empty() && !reads_.empty()));
        }
        if (writeMode_) {
            if (!schedule(now, writes_, true))
                schedule(now, reads_, false);
        } else {
            if (!schedule(now, reads_, false))
                schedule(now, writes_, true);
        }
    }

    std::size_t occupancy() const { return reads_.size() + writes_.size(); }

    std::vector<Completion> completions;
    bool busActive = false;
    ChannelStats stats;

  private:
    struct Entry
    {
        DecodedAddr dec;
        std::uint64_t tag;
        Tick enqueueTick;
        unsigned bank;
        bool hadActivate = false;
        bool hadConflict = false;
    };

    bool
    schedule(Tick now, std::deque<Entry> &queue, bool is_write)
    {
        return column(now, queue, is_write) || activate(now, queue)
            || precharge(now, queue);
    }

    bool
    column(Tick now, std::deque<Entry> &queue, bool is_write)
    {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            const Entry e = *it;
            Bank &bank = banks_[e.bank];
            if (!bank.isOpen() || bank.openRow() != e.dec.row
                || !bank.canColumn(now, is_write)) {
                continue;
            }
            if (lastCasValid_) {
                const unsigned gap = e.dec.bankGroup == lastCasGroup_
                    ? t_.tCCD_L : t_.tCCD_S;
                if (now < lastCas_ + gap)
                    continue;
            }
            if (!is_write && lastWriteValid_) {
                const unsigned wtr = e.dec.bankGroup == lastWriteGroup_
                    ? t_.tWTR_L : t_.tWTR_S;
                if (now < lastWriteEnd_ + wtr)
                    continue;
            }
            const Tick data_start = now + (is_write ? t_.tCWL : t_.tCL);
            if (data_start < busFreeAt_)
                continue;

            bank.column(now, is_write, t_);
            lastCas_ = now;
            lastCasGroup_ = e.dec.bankGroup;
            lastCasValid_ = true;
            const Tick data_end = data_start + t_.tBL;
            busEvents_.push({data_start, +1});
            busEvents_.push({data_end, -1});
            busFreeAt_ = data_end;
            if (is_write) {
                lastWriteEnd_ = data_end;
                lastWriteGroup_ = e.dec.bankGroup;
                lastWriteValid_ = true;
            }
            if (e.hadConflict)
                stats.rowConflicts.inc();
            else if (e.hadActivate)
                stats.rowMisses.inc();
            else
                stats.rowHits.inc();
            if (!is_write) {
                const Tick finish = now + t_.tCL + t_.tBL;
                completions.push_back({e.tag, finish, false});
                stats.reads.inc();
                stats.readLatency.sample(
                    static_cast<double>(finish - e.enqueueTick));
            }
            queue.erase(it);
            return true;
        }
        return false;
    }

    bool
    activate(Tick now, std::deque<Entry> &queue)
    {
        if (lastActValid_ && now < lastAct_ + t_.tRRD_S)
            return false;
        if (actWindow_.size() >= 4 && now < actWindow_.front() + t_.tFAW)
            return false;
        for (Entry &e : queue) {
            Bank &bank = banks_[e.bank];
            if (!bank.canActivate(now))
                continue;
            if (lastActValid_ && e.dec.bankGroup == lastActGroup_
                && now < lastAct_ + t_.tRRD_L) {
                continue;
            }
            bank.activate(now, e.dec.row, t_);
            e.hadActivate = true;
            lastAct_ = now;
            lastActGroup_ = e.dec.bankGroup;
            lastActValid_ = true;
            actWindow_.push_back(now);
            if (actWindow_.size() > 4)
                actWindow_.pop_front();
            return true;
        }
        return false;
    }

    bool
    precharge(Tick now, std::deque<Entry> &queue)
    {
        // FR-FCFS: never close a row that any queued request still wants.
        std::vector<bool> wanted(banks_.size(), false);
        for (const auto *q : {&reads_, &writes_}) {
            for (const Entry &e : *q) {
                if (banks_[e.bank].openRow() == e.dec.row)
                    wanted[e.bank] = true;
            }
        }
        for (Entry &e : queue) {
            Bank &bank = banks_[e.bank];
            if (!bank.isOpen() || bank.openRow() == e.dec.row
                || wanted[e.bank] || !bank.canPrecharge(now)) {
                continue;
            }
            bank.precharge(now, t_);
            e.hadConflict = true;
            return true;
        }
        return false;
    }

    void
    refresh(Tick now)
    {
        refreshPending_ = true;
        bool any_open = false;
        for (Bank &bank : banks_) {
            if (bank.isOpen()) {
                any_open = true;
                if (bank.canPrecharge(now))
                    bank.precharge(now, t_);
            }
        }
        if (any_open)
            return;
        for (Bank &bank : banks_)
            bank.refresh(now, t_);
        stats.refreshes.inc();
        refreshPending_ = false;
        nextRefresh_ = now + t_.tREFI;
    }

    const DramOrg org_;
    const DramTiming t_;
    const unsigned depth_;
    std::vector<Bank> banks_;
    std::deque<Entry> reads_;
    std::deque<Entry> writes_;

    Tick busFreeAt_ = 0;
    Tick lastCas_ = 0;
    unsigned lastCasGroup_ = 0;
    bool lastCasValid_ = false;
    Tick lastWriteEnd_ = 0;
    unsigned lastWriteGroup_ = 0;
    bool lastWriteValid_ = false;
    Tick lastAct_ = 0;
    unsigned lastActGroup_ = 0;
    bool lastActValid_ = false;
    std::deque<Tick> actWindow_;

    Tick nextRefresh_;
    bool refreshPending_ = false;
    bool writeMode_ = false;
    unsigned drainHigh_;
    unsigned drainLow_;

    using BusEvent = std::pair<Tick, int>;
    std::priority_queue<BusEvent, std::vector<BusEvent>,
                        std::greater<BusEvent>> busEvents_;
    int activeTransfers_ = 0;
};

/** One lockstep scenario: geometry, queue depth and traffic shape. */
struct Scenario
{
    const char *name;
    unsigned bankGroups;
    unsigned banksPerGroup;
    unsigned depth;
    double writeFrac;  ///< Share of arrivals that are writes.
    double hotFrac;    ///< Share of arrivals aimed at a few hot lines.
    std::uint64_t seed;
};

/** "reads_2x2_q8": the case name, also what gtest prints for the value. */
std::string
label(const Scenario &s)
{
    return std::string(s.name) + "_" + std::to_string(s.bankGroups) + "x"
        + std::to_string(s.banksPerGroup) + "_q" + std::to_string(s.depth);
}

// Without this gtest prints the raw object bytes, which hold the name
// pointer and struct padding, so listed test names change every run.
void
PrintTo(const Scenario &s, std::ostream *os)
{
    *os << label(s);
}

std::string
describe(const Completion &c)
{
    return "{tag " + std::to_string(c.tag) + ", finish "
        + std::to_string(c.finishTick) + (c.forwarded ? ", fwd}" : "}");
}

std::string
describe(const std::vector<Completion> &list)
{
    std::string out;
    for (const Completion &c : list)
        out += describe(c) + " ";
    return out;
}

bool
sameCompletions(const std::vector<Completion> &a,
                const std::vector<Completion> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Completion &x, const Completion &y) {
                          return x.tag == y.tag
                              && x.finishTick == y.finishTick
                              && x.forwarded == y.forwarded;
                      });
}

void
expectSameStats(const ChannelStats &got, const ChannelStats &want)
{
    EXPECT_EQ(got.reads.value(), want.reads.value());
    EXPECT_EQ(got.writes.value(), want.writes.value());
    EXPECT_EQ(got.rowHits.value(), want.rowHits.value());
    EXPECT_EQ(got.rowMisses.value(), want.rowMisses.value());
    EXPECT_EQ(got.rowConflicts.value(), want.rowConflicts.value());
    EXPECT_EQ(got.forwardedReads.value(), want.forwardedReads.value());
    EXPECT_EQ(got.coalescedWrites.value(), want.coalescedWrites.value());
    EXPECT_EQ(got.refreshes.value(), want.refreshes.value());
    EXPECT_EQ(got.busBusyTicks.value(), want.busBusyTicks.value());
    EXPECT_EQ(got.totalTicks.value(), want.totalTicks.value());
    EXPECT_EQ(got.queueOccupancy.ticks(), want.queueOccupancy.ticks());
    EXPECT_EQ(got.queueOccupancy.mean(), want.queueOccupancy.mean());
    EXPECT_EQ(got.readLatency.count(), want.readLatency.count());
    EXPECT_EQ(got.readLatency.sum(), want.readLatency.sum());
    EXPECT_EQ(got.readLatency.min(), want.readLatency.min());
    EXPECT_EQ(got.readLatency.max(), want.readLatency.max());
}

class DramScheduler : public ::testing::TestWithParam<Scenario>
{
};

TEST_P(DramScheduler, MatchesEntryScanReference)
{
    const Scenario &s = GetParam();
    const DramTiming &timing = ddr4_3200();
    DramOrg org;
    org.channels = 1;
    org.bankGroups = s.bankGroups;
    org.banksPerGroup = s.banksPerGroup;
    org.rows = 512;
    org.columnsPerRow = 32;

    Channel channel(org, timing, s.depth);
    ReferenceChannel ref(org, timing, s.depth);
    Rng rng(s.seed);

    // Alternating bursts and lulls fill the queues past the drain mark
    // and empty them again; the run spans more than two refreshes.
    const Tick end = 5 * timing.tREFI / 2;
    std::uint64_t tag = 0;
    std::uint64_t refused = 0;
    std::uint64_t windows = 0;
    for (Tick now = 0; now < end;) {
        const bool burst = (now / 600) % 3 == 0;
        const double rate = burst ? 0.95 : 0.06;
        unsigned arrivals = rng.chance(rate) + (burst && rng.chance(0.5));
        for (; arrivals > 0; --arrivals) {
            DecodedAddr dec{};
            dec.bankGroup = static_cast<unsigned>(rng.range(s.bankGroups));
            dec.bank = static_cast<unsigned>(rng.range(s.banksPerGroup));
            if (rng.chance(s.hotFrac)) {
                // A few hot lines in two banks of group 0.
                dec.bankGroup = 0;
                dec.bank = static_cast<unsigned>(rng.range(2));
                dec.row = rng.range(2);
                dec.column = static_cast<unsigned>(rng.range(4));
            } else {
                dec.row = rng.range(org.rows);
                dec.column =
                    static_cast<unsigned>(rng.range(org.columnsPerRow));
            }
            const bool is_write = rng.chance(s.writeFrac);
            const bool got = channel.enqueue(dec, is_write, tag, now);
            const bool want = ref.enqueue(dec, is_write, tag, now);
            ASSERT_EQ(got, want) << "enqueue at tick " << now;
            refused += !got;
            ++tag;
        }

        // In lulls, sometimes advance a quiet window in one call.
        std::uint64_t cycles = 1;
        if (!burst && rng.chance(0.05))
            cycles = 1 + rng.range(48);
        cycles = std::min<std::uint64_t>(cycles, end - now);
        std::uint64_t integral = 0;
        if (cycles == 1) {
            channel.tick(now);
        } else {
            integral = channel.tickWindow(now, cycles);
            ++windows;
        }
        std::uint64_t ref_integral = 0;
        for (std::uint64_t i = 0; i < cycles; ++i) {
            ref.tick(now + i);
            ref_integral += ref.occupancy();
        }
        now += cycles;
        if (cycles > 1) {
            ASSERT_EQ(integral, ref_integral) << "window ending " << now;
        }

        if (!sameCompletions(channel.completions(), ref.completions)) {
            FAIL() << "completions differ after tick " << now - 1
                   << "\n  channel:   " << describe(channel.completions())
                   << "\n  reference: " << describe(ref.completions);
        }
        channel.completions().clear();
        ref.completions.clear();
        ASSERT_EQ(channel.occupancy(), ref.occupancy())
            << "after tick " << now - 1;
        ASSERT_EQ(channel.dataBusActive(), ref.busActive)
            << "after tick " << now - 1;
    }
    expectSameStats(channel.stats(), ref.stats);

    // The traffic must reach every mechanism the reference models.
    const ChannelStats &st = ref.stats;
    EXPECT_GE(st.refreshes.value(), 2u);
    EXPECT_GT(st.rowHits.value(), 0u);
    EXPECT_GT(st.rowMisses.value(), 0u);
    EXPECT_GT(st.rowConflicts.value(), 0u);
    EXPECT_GT(st.forwardedReads.value(), 0u);
    EXPECT_GT(st.coalescedWrites.value(), 0u);
    EXPECT_GT(refused, 0u);
    EXPECT_GT(windows, 0u);
}

std::vector<Scenario>
scenarios()
{
    struct Mix
    {
        const char *name;
        double writeFrac;
        double hotFrac;
    };
    const Mix mixes[] = {
        {"reads", 0.2, 0.1},
        {"writes", 0.6, 0.1},
        {"hot", 0.35, 0.6},
    };
    std::vector<Scenario> out;
    std::uint64_t seed = 11;
    for (const unsigned groups : {2u, 4u}) {
        for (const unsigned depth : {8u, 16u, 32u, 64u}) {
            for (const Mix &mix : mixes) {
                out.push_back({mix.name, groups, groups, depth,
                               mix.writeFrac, mix.hotFrac, seed++});
            }
        }
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Lockstep, DramScheduler, ::testing::ValuesIn(scenarios()),
    [](const ::testing::TestParamInfo<Scenario> &info) {
        return label(info.param);
    });

} // namespace
} // namespace palermo
