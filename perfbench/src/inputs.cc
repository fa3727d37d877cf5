/**
 * @file
 * SplitMix64, the uniform miss list, the replay trace and the
 * open-loop arrival schedule.
 */

#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
SplitMix64::below(std::uint64_t bound)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double
SplitMix64::unit()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<palermo::TraceRecord>
uniformTrace(std::uint64_t seed, std::uint64_t lines, std::uint64_t count,
             double write_fraction)
{
    SplitMix64 rng(seed);
    std::vector<palermo::TraceRecord> records;
    records.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const palermo::BlockId line = rng.below(lines);
        records.push_back({line, rng.unit() < write_fraction});
    }
    return records;
}

ReplayTrace::ReplayTrace(const std::vector<palermo::TraceRecord> &records,
                         std::uint64_t lines)
    : TraceGen(lines, 0), records_(&records)
{
}

palermo::TraceRecord
ReplayTrace::next()
{
    if (cursor_ >= records_->size()) {
        std::fprintf(stderr, "perfbench: frontend read past the %zu "
                             "generated misses\n",
                     records_->size());
        std::abort();
    }
    return (*records_)[cursor_++];
}

std::vector<Arrival>
openLoopArrivals(std::uint64_t seed, const ArrivalSpec &spec)
{
    SplitMix64 rng(seed);

    // Zipf CDF over ranks 1..K; a key is its 0-based rank (the tenant
    // directory's PRF scatters ranks across the tenant's slice).
    std::vector<double> cdf(spec.keysPerTenant);
    double total = 0.0;
    for (std::uint64_t rank = 0; rank < spec.keysPerTenant; ++rank) {
        total += std::pow(static_cast<double>(rank + 1), -spec.zipfAlpha);
        cdf[rank] = total;
    }

    const double mean_gap = 1000.0 / spec.ratePerKilocycle;
    double instant = 0.0;
    std::vector<Arrival> arrivals;
    arrivals.reserve(spec.count);
    for (std::uint64_t i = 0; i < spec.count; ++i) {
        instant += -mean_gap * std::log1p(-rng.unit());
        Arrival arrival;
        arrival.due = static_cast<palermo::Tick>(instant);
        arrival.tenant = static_cast<unsigned>(rng.below(spec.tenants));
        const double u = rng.unit() * total;
        arrival.key = static_cast<std::uint64_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        arrival.key = std::min(arrival.key, spec.keysPerTenant - 1);
        arrival.write = rng.unit() < spec.writeFraction;
        arrivals.push_back(arrival);
    }
    return arrivals;
}

} // namespace perfbench
