/**
 * @file
 * FR-FCFS scheduling over slot-mask queues, the per-channel wake tick,
 * write-drain hysteresis, tRRD/tFAW windows, CAS-to-CAS gating, and
 * refresh for one DDR4 channel.
 */

#include "mem/channel.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace palermo {

namespace {

constexpr std::uint64_t
bit(unsigned index)
{
    return std::uint64_t{1} << index;
}

unsigned
lowest(std::uint64_t mask)
{
    return static_cast<unsigned>(std::countr_zero(mask));
}

} // namespace

void
ChannelStats::reset()
{
    reads.reset();
    writes.reset();
    rowHits.reset();
    rowMisses.reset();
    rowConflicts.reset();
    forwardedReads.reset();
    coalescedWrites.reset();
    refreshes.reset();
    busBusyTicks.reset();
    totalTicks.reset();
    queueOccupancy.reset();
    readLatency.reset();
}

void
Channel::Queue::push(const Entry &e, bool hit)
{
    const std::uint64_t slot = bit(static_cast<unsigned>(slots.size()));
    slots.push_back(e);
    bankSlots[e.flatBank] |= slot;
    banks |= bit(e.flatBank);
    if (hit)
        hitSlots |= slot;
}

void
Channel::Queue::erase(unsigned slot)
{
    const unsigned flat_bank = slots[slot].flatBank;
    slots.erase(slots.begin() + slot);
    // Keep the bits below the slot, shift the ones above it down.
    const std::uint64_t below = bit(slot) - 1;
    auto squeeze = [below](std::uint64_t mask) {
        return (mask & below) | ((mask >> 1) & ~below);
    };
    hitSlots = squeeze(hitSlots);
    for (std::uint64_t m = banks; m != 0; m &= m - 1) {
        std::uint64_t &mask = bankSlots[lowest(m)];
        mask = squeeze(mask);
    }
    if (bankSlots[flat_bank] == 0)
        banks &= ~bit(flat_bank);
}

Channel::Channel(const DramOrg &org, const DramTiming &timing,
                 unsigned queue_depth)
    : org_(org), timing_(timing), queueDepth_(queue_depth),
      banks_(org.banksPerChannel()), bankGroup_(org.banksPerChannel()),
      nextRefresh_(timing.tREFI),
      drainHigh_(std::max(2u, queue_depth * 3 / 4)),
      drainLow_(std::max(1u, queue_depth / 4))
{
    palermo_assert(queue_depth >= 1 && queue_depth <= 64,
                   "queue depth must fit a 64-bit slot mask");
    palermo_assert(banks_.size() <= 64,
                   "banks per channel must fit a 64-bit bank mask");
    for (unsigned b = 0; b < bankGroup_.size(); ++b)
        bankGroup_[b] = (b / org.banksPerGroup) % org.bankGroups;
    for (Queue *queue : {&readQueue_, &writeQueue_}) {
        queue->slots.reserve(queue_depth);
        queue->bankSlots.assign(banks_.size(), 0);
    }
    // Unfinished bursts end within the longest CAS latency plus one
    // burst of now and never overlap, so this ring never overflows.
    const unsigned burst = std::max(1u, timing.tBL);
    bursts_.resize(std::bit_ceil(
        (std::max(timing.tCL, timing.tCWL) + burst) / burst + 2u));
}

bool
Channel::enqueue(const DecodedAddr &dec, bool is_write, std::uint64_t tag,
                 Tick now)
{
    const unsigned flat_bank = dec.flatBank(org_);
    // A line still pending in the write queue absorbs a write to it
    // (coalescing) and serves a read of it (the hardware controller's
    // store-to-load forwarding). Forwarding is what lets Palermo's east
    // sibling read data whose ER writes were issued but not committed.
    for (std::uint64_t m = writeQueue_.bankSlots[flat_bank]; m != 0;
         m &= m - 1) {
        const Entry &entry = writeQueue_.slots[lowest(m)];
        if (entry.row != dec.row || entry.column != dec.column)
            continue;
        if (is_write) {
            stats_.coalescedWrites.inc();
            return true;
        }
        stats_.forwardedReads.inc();
        stats_.reads.inc();
        completions_.push_back({tag, now + timing_.tCL, true});
        stats_.readLatency.sample(static_cast<double>(timing_.tCL));
        return true;
    }

    Queue &queue = is_write ? writeQueue_ : readQueue_;
    if (queue.slots.size() >= queueDepth_)
        return false;
    const Bank &bank = banks_[flat_bank];
    const bool hit = bank.isOpen() && bank.openRow() == dec.row;
    queue.push({dec.row, tag, now, dec.column,
                static_cast<std::uint8_t>(flat_bank)},
               hit);
    if (is_write)
        stats_.writes.inc();

    // Lower the wake to this entry's own deadline. A mismatch on a bank
    // whose open row is wanted waits for those hits, which already bound
    // the wake.
    Tick ready = kInvalid;
    if (hit) {
        wantedBanks_ |= bit(flat_bank);
        ready = columnReadyAt(flat_bank, is_write);
    } else if (!bank.isOpen()) {
        ready = activateReadyAt(flat_bank);
    } else if (!(wantedBanks_ & bit(flat_bank))) {
        ready = bank.nextPreAt();
    }
    wakeAt_ = std::min(wakeAt_, ready);
    return true;
}

void
Channel::tick(Tick now)
{
    stats_.totalTicks.inc();
    stats_.queueOccupancy.accumulate(
        static_cast<double>(occupancy()), 1);

    // Retire finished bursts to maintain the instantaneous activity flag.
    const std::size_t ring = bursts_.size() - 1;
    while (burstCount_ > 0 && bursts_[burstHead_].end <= now) {
        burstHead_ = (burstHead_ + 1) & ring;
        --burstCount_;
    }
    busActiveNow_ = burstCount_ > 0 && bursts_[burstHead_].start <= now;
    if (busActiveNow_)
        stats_.busBusyTicks.inc();

    if (refreshPending_ || now >= nextRefresh_) {
        handleRefresh(now);
        return;
    }

    // Write drain hysteresis.
    const std::size_t reads = readQueue_.slots.size();
    const std::size_t writes = writeQueue_.slots.size();
    if (!writeMode_) {
        if (writes >= drainHigh_ || (reads == 0 && writes != 0))
            writeMode_ = true;
    } else {
        if (writes <= drainLow_ || (writes == 0 && reads != 0))
            writeMode_ = false;
    }

    if (now < wakeAt_)
        return;
    Tick wake = kInvalid;
    const bool issued = writeMode_
        ? trySchedule(now, writeQueue_, true, wake)
            || trySchedule(now, readQueue_, false, wake)
        : trySchedule(now, readQueue_, false, wake)
            || trySchedule(now, writeQueue_, true, wake);
    // After a command every gate may have moved: look again next tick.
    wakeAt_ = issued ? now + 1 : wake;
}

std::uint64_t
Channel::tickWindow(Tick now, std::uint64_t cycles)
{
    std::uint64_t integral = 0;
    for (std::uint64_t i = 0; i < cycles; ++i) {
        tick(now + i);
        integral += occupancy();
    }
    return integral;
}

void
Channel::handleRefresh(Tick now)
{
    refreshPending_ = true;
    wakeAt_ = 0;
    // Close open banks as their precharge constraints allow, then issue
    // the all-bank refresh.
    if (openBanks_ != 0) {
        for (std::uint64_t m = openBanks_; m != 0; m &= m - 1) {
            const unsigned b = lowest(m);
            if (banks_[b].canPrecharge(now))
                closeRow(b, now);
        }
        return;
    }
    for (auto &bank : banks_)
        bank.refresh(now, timing_);
    stats_.refreshes.inc();
    refreshPending_ = false;
    nextRefresh_ = now + timing_.tREFI;
}

Tick
Channel::columnReadyAt(unsigned flat_bank, bool is_write) const
{
    Tick at = banks_[flat_bank].nextColumnAt(is_write);
    const unsigned group = bankGroup_[flat_bank];
    // CAS-to-CAS spacing.
    if (lastCasValid_) {
        const unsigned gap = group == lastCasBankGroup_
            ? timing_.tCCD_L : timing_.tCCD_S;
        at = std::max(at, lastCas_ + gap);
    }
    // Write-to-read turnaround.
    if (!is_write && lastWriteValid_) {
        const unsigned wtr = group == lastWriteBankGroup_
            ? timing_.tWTR_L : timing_.tWTR_S;
        at = std::max(at, lastWriteDataEnd_ + wtr);
    }
    // Data bus must be free when this burst would start.
    const Tick cas_lat = is_write ? timing_.tCWL : timing_.tCL;
    if (busFreeAt_ > cas_lat)
        at = std::max(at, busFreeAt_ - cas_lat);
    return at;
}

Tick
Channel::activateReadyAt(unsigned flat_bank) const
{
    Tick at = banks_[flat_bank].nextActAt();
    if (lastActValid_) {
        const unsigned rrd = bankGroup_[flat_bank] == lastActBankGroup_
            ? std::max(timing_.tRRD_L, timing_.tRRD_S) : timing_.tRRD_S;
        at = std::max(at, lastAct_ + rrd);
    }
    if (actCount_ == actWindow_.size())
        at = std::max(at, actWindow_[actNext_] + timing_.tFAW);
    return at;
}

void
Channel::recordCas(Tick now, const Entry &e, bool is_write)
{
    lastCas_ = now;
    lastCasBankGroup_ = bankGroup_[e.flatBank];
    lastCasValid_ = true;

    const Tick data_start = now + (is_write ? timing_.tCWL : timing_.tCL);
    const Tick data_end = data_start + timing_.tBL;
    palermo_assert(burstCount_ < bursts_.size());
    bursts_[(burstHead_ + burstCount_++) & (bursts_.size() - 1)] =
        {data_start, data_end};
    busFreeAt_ = data_end;

    if (is_write) {
        lastWriteDataEnd_ = data_end;
        lastWriteBankGroup_ = bankGroup_[e.flatBank];
        lastWriteValid_ = true;
    }

    // Row-buffer outcome classification for this request.
    if (e.hadConflict)
        stats_.rowConflicts.inc();
    else if (e.hadActivate)
        stats_.rowMisses.inc();
    else
        stats_.rowHits.inc();
}

void
Channel::openRow(unsigned flat_bank, std::uint64_t row, Tick now)
{
    banks_[flat_bank].activate(now, row, timing_);
    openBanks_ |= bit(flat_bank);
    for (Queue *queue : {&readQueue_, &writeQueue_}) {
        for (std::uint64_t m = queue->bankSlots[flat_bank]; m != 0;
             m &= m - 1) {
            const unsigned slot = lowest(m);
            if (queue->slots[slot].row == row) {
                queue->hitSlots |= bit(slot);
                wantedBanks_ |= bit(flat_bank);
            }
        }
    }
    lastAct_ = now;
    lastActBankGroup_ = bankGroup_[flat_bank];
    lastActValid_ = true;
    actWindow_[actNext_] = now;
    actNext_ = (actNext_ + 1) % actWindow_.size();
    actCount_ = std::min<unsigned>(actCount_ + 1, actWindow_.size());
}

void
Channel::closeRow(unsigned flat_bank, Tick now)
{
    banks_[flat_bank].precharge(now, timing_);
    openBanks_ &= ~bit(flat_bank);
    wantedBanks_ &= ~bit(flat_bank);
    readQueue_.hitSlots &= ~readQueue_.bankSlots[flat_bank];
    writeQueue_.hitSlots &= ~writeQueue_.bankSlots[flat_bank];
}

bool
Channel::tryColumn(Tick now, Queue &queue, bool is_write, Tick &wake)
{
    // Only row hits can take a CAS, and every gate depends on the bank
    // alone: the oldest hit of all ready banks is the lowest bit of the
    // union of their hit slots.
    std::uint64_t ready = 0;
    for (std::uint64_t m = queue.banks & wantedBanks_; m != 0; m &= m - 1) {
        const unsigned b = lowest(m);
        const std::uint64_t hits = queue.hitSlots & queue.bankSlots[b];
        if (hits == 0)
            continue;
        const Tick at = columnReadyAt(b, is_write);
        if (at <= now)
            ready |= hits;
        else
            wake = std::min(wake, at);
    }
    if (ready == 0)
        return false;
    const unsigned slot = lowest(ready);
    const Entry entry = queue.slots[slot];
    banks_[entry.flatBank].column(now, is_write, timing_);
    recordCas(now, entry, is_write);
    if (!is_write) {
        const Tick finish = now + timing_.tCL + timing_.tBL;
        completions_.push_back({entry.tag, finish, false});
        stats_.reads.inc();
        stats_.readLatency.sample(
            static_cast<double>(finish - entry.enqueueTick));
    }
    queue.erase(slot);
    const std::uint64_t hits =
        (readQueue_.hitSlots & readQueue_.bankSlots[entry.flatBank])
        | (writeQueue_.hitSlots & writeQueue_.bankSlots[entry.flatBank]);
    if (hits == 0)
        wantedBanks_ &= ~bit(entry.flatBank);
    return true;
}

bool
Channel::tryActivate(Tick now, Queue &queue, Tick &wake)
{
    // Every entry of a ready closed bank may take the ACT; the oldest
    // of them all is the lowest bit of the union.
    std::uint64_t ready = 0;
    for (std::uint64_t m = queue.banks & ~openBanks_; m != 0; m &= m - 1) {
        const unsigned b = lowest(m);
        const Tick at = activateReadyAt(b);
        if (at <= now)
            ready |= queue.bankSlots[b];
        else
            wake = std::min(wake, at);
    }
    if (ready == 0)
        return false;
    Entry &entry = queue.slots[lowest(ready)];
    entry.hadActivate = true;
    openRow(entry.flatBank, entry.row, now);
    return true;
}

bool
Channel::tryPrecharge(Tick now, Queue &queue, Tick &wake)
{
    // A bank may close when it is open at a row no queued entry wants
    // (FR-FCFS: do not close a row other requests still want); every
    // entry queued for it then mismatches the open row.
    std::uint64_t ready = 0;
    for (std::uint64_t m = queue.banks & openBanks_ & ~wantedBanks_; m != 0;
         m &= m - 1) {
        const unsigned b = lowest(m);
        const Tick at = banks_[b].nextPreAt();
        if (at <= now)
            ready |= queue.bankSlots[b];
        else
            wake = std::min(wake, at);
    }
    if (ready == 0)
        return false;
    Entry &entry = queue.slots[lowest(ready)];
    entry.hadConflict = true;
    closeRow(entry.flatBank, now);
    return true;
}

bool
Channel::trySchedule(Tick now, Queue &queue, bool is_write, Tick &wake)
{
    return tryColumn(now, queue, is_write, wake)
        || tryActivate(now, queue, wake)
        || tryPrecharge(now, queue, wake);
}

} // namespace palermo
