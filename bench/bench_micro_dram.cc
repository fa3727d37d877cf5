/**
 * @file
 * google-benchmark micros for the DDR4 model hot paths: tick cost when
 * idle/loaded and sustained enqueue->completion throughput under
 * streaming and random traffic.
 */

#include <benchmark/benchmark.h>

#include "bench_micro_util.hh"

#include "common/rng.hh"
#include "mem/dram_system.hh"

using namespace palermo;

namespace {

DramConfig
benchConfig()
{
    DramConfig config;
    config.org.rows = 1u << 12;
    return config;
}

void
BM_DramIdleTick(benchmark::State &state)
{
    DramSystem dram(benchConfig());
    for (auto _ : state)
        dram.tick();
}
BENCHMARK(BM_DramIdleTick);

void
BM_DramLoadedTick(benchmark::State &state)
{
    DramSystem dram(benchConfig());
    Rng rng(1);
    std::uint64_t issued = 0;
    const std::uint64_t lines =
        benchConfig().org.capacityBytes() / kBlockBytes;
    for (auto _ : state) {
        while (dram.enqueue(rng.range(lines) * kBlockBytes, false,
                            issued)) {
            ++issued;
        }
        dram.tick();
        benchmark::DoNotOptimize(dram.drainCompletions());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(issued));
}
BENCHMARK(BM_DramLoadedTick);

/**
 * Per-tick cost in the regime palermo-b22 runs in: about 26 requests
 * outstanding per channel, 30% of them writes, so both queues, the
 * write drain and the read/write turnarounds stay in play.
 */
void
BM_DramMixedTick(benchmark::State &state)
{
    const DramConfig config = benchConfig();
    DramSystem dram(config);
    Rng rng(3);
    const std::uint64_t lines = config.org.capacityBytes() / kBlockBytes;
    const std::size_t outstanding = 26 * config.org.channels;
    std::uint64_t issued = 0;
    for (auto _ : state) {
        while (dram.occupancy() < outstanding
               && dram.enqueue(rng.range(lines) * kBlockBytes,
                               rng.chance(0.3), issued)) {
            ++issued;
        }
        dram.tick();
        benchmark::DoNotOptimize(dram.drainCompletions());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(issued));
}
BENCHMARK(BM_DramMixedTick);

void
BM_DramStreamingThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        DramSystem dram(benchConfig());
        Addr addr = 0;
        std::uint64_t done = 0;
        std::uint64_t issued = 0;
        while (done < 1000) {
            while (issued < 1000 && dram.enqueue(addr, false, issued)) {
                addr += kBlockBytes;
                ++issued;
            }
            dram.tick();
            done += dram.drainCompletions().size();
        }
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DramStreamingThroughput);

void
BM_AddressDecode(benchmark::State &state)
{
    const AddressMap map(benchConfig().org);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(map.decode(rng.next() & 0x3FFFFFFFF));
}
BENCHMARK(BM_AddressDecode);

} // namespace

int
main(int argc, char **argv)
{
    return palermo::bench::microMain(argc, argv);
}
