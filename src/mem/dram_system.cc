/**
 * @file
 * Channel routing, per-tick advancement, completion delivery, and
 * aggregate bandwidth/row-hit statistics.
 */

#include "mem/dram_system.hh"

#include <algorithm>

#include "common/log.hh"

namespace palermo {

double
DramSnapshot::rowHitRate() const
{
    const auto total = rowHits + rowMisses + rowConflicts;
    return total ? static_cast<double>(rowHits) / total : 0.0;
}

double
DramSnapshot::rowConflictRate() const
{
    const auto total = rowHits + rowMisses + rowConflicts;
    return total ? static_cast<double>(rowConflicts) / total : 0.0;
}

double
DramSnapshot::busUtilization() const
{
    return totalTicks
        ? static_cast<double>(busBusyTicks) / totalTicks : 0.0;
}

DramSystem::DramSystem(const DramConfig &config)
    : config_(config), map_(config.org, config.policy)
{
    palermo_assert(config.org.channels > 0);
    channels_.reserve(config.org.channels);
    for (unsigned c = 0; c < config.org.channels; ++c) {
        channels_.push_back(std::make_unique<Channel>(
            config.org, config.timing, config.queueDepth));
    }
}

bool
DramSystem::enqueue(Addr addr, bool is_write, std::uint64_t tag)
{
    const DecodedAddr dec = map_.decode(addr);
    return channels_[dec.channel]->enqueue(dec, is_write, tag, now_);
}

void
DramSystem::tick()
{
    for (auto &channel : channels_)
        channel->tick(now_);
    ++now_;
}

std::uint64_t
DramSystem::tickWindow(std::uint64_t cycles)
{
    std::uint64_t integral = 0;
    for (auto &channel : channels_)
        integral += channel->tickWindow(now_, cycles);
    now_ += cycles;
    return integral;
}

bool
DramSystem::readQuiescent() const
{
    if (!pending_.empty())
        return false;
    for (const auto &channel : channels_) {
        if (!channel->readQuiescent())
            return false;
    }
    return true;
}

const std::vector<Completion> &
DramSystem::drainCompletions()
{
    // Move channel completions whose finish tick has passed into the
    // ready list; keep future ones pending (reads complete at
    // issue + tCL + tBL, which is later than the CAS issue tick).
    for (auto &channel : channels_) {
        auto &list = channel->completions();
        for (const Completion &completion : list) {
            pending_.push_back(completion);
            nextFinish_ = std::min(nextFinish_, completion.finishTick);
        }
        list.clear();
    }
    ready_.clear();
    if (nextFinish_ > now_)
        return ready_;
    auto split = std::partition(
        pending_.begin(), pending_.end(),
        [this](const Completion &c) { return c.finishTick > now_; });
    ready_.assign(split, pending_.end());
    pending_.erase(split, pending_.end());
    std::sort(ready_.begin(), ready_.end(),
              [](const Completion &a, const Completion &b) {
                  return a.finishTick < b.finishTick;
              });
    nextFinish_ = kInvalid;
    for (const Completion &completion : pending_)
        nextFinish_ = std::min(nextFinish_, completion.finishTick);
    return ready_;
}

bool
DramSystem::dataBusActive() const
{
    for (const auto &channel : channels_) {
        if (channel->dataBusActive())
            return true;
    }
    return false;
}

std::size_t
DramSystem::occupancy() const
{
    std::size_t total = 0;
    for (const auto &channel : channels_)
        total += channel->occupancy();
    return total;
}

void
DramSystem::resetStats()
{
    for (auto &channel : channels_)
        channel->stats().reset();
}

DramSnapshot
DramSystem::snapshot() const
{
    DramSnapshot snap;
    double occ = 0.0;
    double latency = 0.0;
    std::uint64_t latency_samples = 0;
    for (const auto &channel : channels_) {
        const ChannelStats &s = channel->stats();
        snap.reads += s.reads.value();
        snap.writes += s.writes.value();
        snap.rowHits += s.rowHits.value();
        snap.rowMisses += s.rowMisses.value();
        snap.rowConflicts += s.rowConflicts.value();
        snap.forwardedReads += s.forwardedReads.value();
        snap.busBusyTicks += s.busBusyTicks.value();
        snap.totalTicks = std::max(snap.totalTicks, s.totalTicks.value());
        occ += s.queueOccupancy.mean();
        latency += s.readLatency.mean() * s.readLatency.count();
        latency_samples += s.readLatency.count();
    }
    // Bus utilization denominator: each channel contributes its ticks.
    snap.totalTicks *= channels_.size();
    snap.avgQueueOccupancy = occ;
    snap.avgReadLatency =
        latency_samples ? latency / latency_samples : 0.0;
    return snap;
}

double
DramSystem::peakBytesPerTick() const
{
    return config_.timing.bytesPerCycle() * config_.org.channels;
}

double
DramSystem::peakBandwidthGBps() const
{
    return peakBytesPerTick() * config_.timing.clockGHz;
}

} // namespace palermo
