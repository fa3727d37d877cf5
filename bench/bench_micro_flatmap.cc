/**
 * @file
 * google-benchmark micros for FlatMap vs the pooled std::unordered_map
 * it replaced on the simulator hot path. Three access patterns at the
 * sizes the simulator actually sees: stash-scale churn (hundreds of
 * entries, insert/erase balanced) and posmap-tail-scale lookups (tens
 * of thousands of entries, read-mostly). Run side by side, the pairs
 * justify — and guard — the flat-layout migration.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "bench_micro_util.hh"

#include "common/flat_map.hh"
#include "common/pool.hh"
#include "common/rng.hh"

using namespace palermo;

namespace {

/** The container FlatMap replaced: unordered_map on a PoolResource. */
using PooledStdMap = std::unordered_map<
    std::uint64_t, std::uint64_t, FlatHash<std::uint64_t>,
    std::equal_to<std::uint64_t>,
    PoolAllocator<std::pair<const std::uint64_t, std::uint64_t>>>;

PooledStdMap
makeStdMap(PoolResource *pool)
{
    return PooledStdMap(
        0, FlatHash<std::uint64_t>(), std::equal_to<std::uint64_t>(),
        PoolAllocator<std::pair<const std::uint64_t, std::uint64_t>>(
            pool));
}

/**
 * Stash-scale churn: a bounded working set with balanced put/take, the
 * Stash::index_ access pattern during path eviction.
 */
void
BM_FlatMapChurn(benchmark::State &state)
{
    const std::uint64_t window = static_cast<std::uint64_t>(state.range(0));
    PoolResource pool;
    FlatMap<std::uint64_t, std::uint64_t> map(&pool);
    std::uint64_t i = 0;
    for (auto _ : state) {
        map.emplace(i % (2 * window), i);
        if (i >= window)
            map.erase((i - window) % (2 * window));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapChurn)->Arg(256)->Arg(4096);

void
BM_StdMapChurn(benchmark::State &state)
{
    const std::uint64_t window = static_cast<std::uint64_t>(state.range(0));
    PoolResource pool;
    PooledStdMap map = makeStdMap(&pool);
    std::uint64_t i = 0;
    for (auto _ : state) {
        map.emplace(i % (2 * window), i);
        if (i >= window)
            map.erase((i - window) % (2 * window));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMapChurn)->Arg(256)->Arg(4096);

/**
 * Read-mostly lookups over a resident table: the posmap-tail and
 * prefetch-filter pattern (every ORAM access probes, few mutate).
 * Half the probes hit, half miss.
 */
void
BM_FlatMapLookup(benchmark::State &state)
{
    const std::uint64_t size = static_cast<std::uint64_t>(state.range(0));
    PoolResource pool;
    FlatMap<std::uint64_t, std::uint64_t> map(&pool);
    for (std::uint64_t k = 0; k < size; ++k)
        map.emplace(2 * k, k);
    Rng rng(1);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        const std::uint64_t *v = map.findValue(rng.range(2 * size));
        sum += v != nullptr ? *v : 0;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapLookup)->Arg(256)->Arg(65536);

void
BM_StdMapLookup(benchmark::State &state)
{
    const std::uint64_t size = static_cast<std::uint64_t>(state.range(0));
    PoolResource pool;
    PooledStdMap map = makeStdMap(&pool);
    for (std::uint64_t k = 0; k < size; ++k)
        map.emplace(2 * k, k);
    Rng rng(1);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        const auto it = map.find(rng.range(2 * size));
        sum += it != map.end() ? it->second : 0;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMapLookup)->Arg(256)->Arg(65536);

} // namespace

int
main(int argc, char **argv)
{
    return palermo::bench::microMain(argc, argv);
}
