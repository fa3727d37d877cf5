/**
 * @file
 * Per-channel DRAM controller: FR-FCFS scheduling over split read/write
 * queues, write-drain hysteresis, write-to-read forwarding, bank timing,
 * tRRD/tFAW activate windows, CAS-to-CAS gating, and all-bank refresh.
 *
 * Each queue is an age-ordered slot array of at most 64 entries, indexed
 * by 64-bit slot masks: one per flat bank and one for row hits. The
 * oldest eligible entry of a command class is the lowest set bit of a
 * ready mask, so selection matches an age-ordered scan of the queue.
 * A wake tick bounds when any queued entry could next pass its gates;
 * ticks before it skip scheduling.
 *
 * Channel independence: every mutable member of Channel is owned by
 * this channel. Channels never read or write each other's state, so
 * over a window with no enqueue and no completion delivery,
 * DramSystem::tickWindow may advance them one after another instead of
 * cycle by cycle. Everything runs on the thread stepping the session.
 */

#ifndef PALERMO_MEM_CHANNEL_HH
#define PALERMO_MEM_CHANNEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/address_map.hh"
#include "mem/bank.hh"
#include "mem/dram_timing.hh"

namespace palermo {

/** A finished read returned to the requester. */
struct Completion
{
    std::uint64_t tag;   ///< Caller-provided identifier.
    Tick finishTick;     ///< Tick at which read data became available.
    bool forwarded;      ///< Served from the write queue, not the array.
};

/** Aggregated per-channel statistics. */
struct ChannelStats
{
    Counter reads;
    Counter writes;
    Counter rowHits;
    Counter rowMisses;
    Counter rowConflicts;
    Counter forwardedReads;
    Counter coalescedWrites;
    Counter refreshes;
    Counter busBusyTicks;
    Counter totalTicks;
    TimeWeighted queueOccupancy;
    Average readLatency;

    void reset();
};

/** One DDR4 channel with its own command/data bus and bank set. */
class Channel
{
  public:
    /** @param queue_depth Slots per queue, at most 64. */
    Channel(const DramOrg &org, const DramTiming &timing,
            unsigned queue_depth);

    /**
     * Enqueue a request whose address decodes to this channel.
     * Reads that hit the write queue complete via forwarding; writes to
     * a line already queued for writing coalesce into it.
     * @return false if the queue is full (caller must retry).
     */
    bool enqueue(const DecodedAddr &dec, bool is_write, std::uint64_t tag,
                 Tick now);

    /** Advance one cycle: issue at most one command, retire data. */
    void tick(Tick now);

    /**
     * Advance a batch of cycles [now, now + cycles) in one call — the
     * batched-epoch fast path used when the coordinator proved no
     * cross-channel event (enqueue, completion delivery) can occur in
     * the window. State evolution is exactly `cycles` calls to tick().
     * @return The post-tick occupancy integral: sum over the window's
     *         cycles of occupancy() after each tick. All addends are
     *         small integers, so the sum is exact and order-free.
     */
    std::uint64_t tickWindow(Tick now, std::uint64_t cycles);

    /**
     * True when no read activity is pending: the read queue is empty
     * and no completion awaits draining. Queued writes may still drain
     * silently, so this — not occupancy() == 0 — is the channel-side
     * gate for the batched-epoch fast path.
     */
    bool readQuiescent() const
    {
        return readQueue_.slots.empty() && completions_.empty();
    }

    /** Drain completions produced so far (appended in finish order). */
    std::vector<Completion> &completions() { return completions_; }

    /** True if the data bus carried a beat during the last tick. */
    bool dataBusActive() const { return busActiveNow_; }

    /** Outstanding requests in both queues. */
    std::size_t occupancy() const
    {
        return readQueue_.slots.size() + writeQueue_.slots.size();
    }

    ChannelStats &stats() { return stats_; }
    const ChannelStats &stats() const { return stats_; }

  private:
    /** A queued request: the coordinates the scheduler needs. */
    struct Entry
    {
        std::uint64_t row;
        std::uint64_t tag;
        Tick enqueueTick;
        std::uint32_t column;
        std::uint8_t flatBank;
        bool hadActivate = false;
        bool hadConflict = false;
    };

    /**
     * One request queue. slots[i] is the i-th oldest entry and bit i of
     * every mask names it, so the lowest set bit of any mask is its
     * oldest entry. Removing a slot squeezes the younger entries and
     * every mask bit above it down by one.
     */
    struct Queue
    {
        std::vector<Entry> slots;             ///< Reserved to queueDepth.
        std::vector<std::uint64_t> bankSlots; ///< Per flat bank.
        std::uint64_t hitSlots = 0; ///< Entries whose bank has their row open.
        std::uint64_t banks = 0;    ///< Flat banks with a queued entry.

        void push(const Entry &e, bool hit);
        void erase(unsigned slot);
    };

    /** A data burst occupying the bus over [start, end). */
    struct Burst
    {
        Tick start;
        Tick end;
    };

    // Scheduling passes; each issues at most one command and returns
    // true if it did. A pass that issues nothing lowers `wake` to the
    // earliest tick one of its candidates clears its gates.
    bool trySchedule(Tick now, Queue &queue, bool is_write, Tick &wake);
    bool tryColumn(Tick now, Queue &queue, bool is_write, Tick &wake);
    bool tryActivate(Tick now, Queue &queue, Tick &wake);
    bool tryPrecharge(Tick now, Queue &queue, Tick &wake);
    void handleRefresh(Tick now);

    /** Earliest tick a CAS to the bank's open row clears every gate. */
    Tick columnReadyAt(unsigned flat_bank, bool is_write) const;
    /** Earliest tick an ACT to the (closed) bank clears every gate. */
    Tick activateReadyAt(unsigned flat_bank) const;

    void recordCas(Tick now, const Entry &e, bool is_write);

    /** ACT/PRE bookkeeping: keep the row-hit masks exact. */
    void openRow(unsigned flat_bank, std::uint64_t row, Tick now);
    void closeRow(unsigned flat_bank, Tick now);

    const DramOrg org_;
    const DramTiming timing_;
    const unsigned queueDepth_;

    std::vector<Bank> banks_;
    std::vector<unsigned> bankGroup_; ///< Bank group of each flat bank.
    std::uint64_t openBanks_ = 0;     ///< Flat banks with an open row.
    /** Open banks whose row some queued entry wants: never precharged. */
    std::uint64_t wantedBanks_ = 0;
    Queue readQueue_;
    Queue writeQueue_;
    std::vector<Completion> completions_;

    /**
     * No queued entry can pass its gates before this tick, so tick()
     * skips scheduling until then. A tick that issues nothing sets it
     * from its own passes; any issued command or refresh resets it, and
     * an enqueue lowers it to the new entry's deadline. Between those
     * events every gate deadline is fixed, so the bound stays exact.
     */
    Tick wakeAt_ = 0;

    // Channel-level gating state.
    Tick busFreeAt_ = 0;            ///< Data bus reserved through here.
    Tick lastCas_ = 0;              ///< Last CAS issue tick.
    unsigned lastCasBankGroup_ = 0;
    bool lastCasValid_ = false;
    Tick lastWriteDataEnd_ = 0;     ///< For tWTR write->read gating.
    unsigned lastWriteBankGroup_ = 0;
    bool lastWriteValid_ = false;
    Tick lastAct_ = 0;
    unsigned lastActBankGroup_ = 0;
    bool lastActValid_ = false;
    std::array<Tick, 4> actWindow_{}; ///< Last 4 ACTs (tFAW), a ring.
    unsigned actNext_ = 0; ///< Next ring slot; the oldest ACT once full.
    unsigned actCount_ = 0;

    // Refresh state.
    Tick nextRefresh_;
    bool refreshPending_ = false;

    // Write drain hysteresis.
    bool writeMode_ = false;
    unsigned drainHigh_;
    unsigned drainLow_;

    /** Scheduled data bursts, oldest first, in a power-of-two ring. The
     * CAS gate starts each burst at or after the previous one's end, so
     * they never overlap and the oldest unfinished burst alone decides
     * whether the bus is busy. */
    std::vector<Burst> bursts_;
    std::size_t burstHead_ = 0;
    std::size_t burstCount_ = 0;
    bool busActiveNow_ = false;

    ChannelStats stats_;
};

} // namespace palermo

#endif // PALERMO_MEM_CHANNEL_HH
