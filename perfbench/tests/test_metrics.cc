/**
 * @file
 * Tests of the benchmark's own metric code. Plain C++ so the benchmark
 * package needs no test framework; ctest runs the binary and any
 * failed check makes it exit 1.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "inputs.hh"
#include "metrics.hh"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        if (!(cond)) {                                                       \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                         __LINE__, #cond);                                   \
            ++failures;                                                      \
        }                                                                    \
    } while (0)

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> values;
    for (std::size_t i = n; i >= 1; --i)
        values.push_back(static_cast<double>(i)); // Unsorted on purpose.
    return values;
}

void
percentileSelection()
{
    // Nearest rank: p99 of 1..1000 is the 990th value.
    CHECK(percentileIndex(1000, 0.99) == 989);
    CHECK(percentileIndex(1000, 0.50) == 499);
    CHECK(percentileIndex(1, 0.99) == 0);
    CHECK(percentileIndex(7, 0.0) == 0);
    CHECK(percentileIndex(7, 1.0) == 6);

    const LatencySummary summary = summarize(oneTo(1000));
    CHECK(summary.samples == 1000);
    CHECK(summary.min == 1.0);
    CHECK(summary.p50 == 500.0);
    CHECK(summary.p99 == 990.0);
    CHECK(summary.max == 1000.0);

    // Repeated values stay exact: no bucket midpoints.
    const LatencySummary flat = summarize(std::vector<double>(2000, 397978.0));
    CHECK(flat.p50 == 397978.0 && flat.p99 == 397978.0);
}

void
tenBeyondRule()
{
    // 1000 samples leave exactly 10 beyond p99; 999 leave 9.
    CHECK(samplesBeyond(1000, 0.99) == 10);
    CHECK(samplesBeyond(999, 0.99) == 9);
    CHECK(samplesBeyond(0, 0.99) == 0);

    std::vector<std::string> problems;
    CHECK(checkLatency(summarize(oneTo(1000)), "ok", &problems));
    CHECK(problems.empty());
    CHECK(!checkLatency(summarize(oneTo(999)), "short", &problems));
    CHECK(problems.size() == 1);
    CHECK(!checkLatency(summarize({}), "empty", &problems));
}

void
quantileOrder()
{
    std::vector<std::string> problems;
    LatencySummary summary = summarize(oneTo(2000));
    summary.p50 = summary.min - 1.0; // Median below the minimum.
    CHECK(!checkLatency(summary, "clamped", &problems));
    CHECK(problems.size() == 1);
}

void
okFractionAccounting()
{
    // 100 offered, 5 rejected by a full queue, 2 accepted but unserved.
    const std::uint64_t offered = 100;
    const std::uint64_t rejected = 5;
    const std::uint64_t unserved = 2;
    CHECK(okFraction(offered, offered - rejected - unserved) == 0.93);
    CHECK(okFraction(offered, offered) == 1.0);
    CHECK(okFraction(0, 0) == 0.0);
}

void
tracedCounterCheck()
{
    const SimCounters untraced{123456, 4000, 90000, 80000};
    CHECK(counterMismatches(untraced, untraced).empty());

    SimCounters perturbed = untraced;
    perturbed.dramWrites += 1;
    const std::vector<std::string> problems =
        counterMismatches(untraced, perturbed);
    CHECK(problems.size() == 1);
    CHECK(problems.size() == 1
          && problems[0].find("dram writes") != std::string::npos);

    perturbed = untraced;
    perturbed.cycles -= 1;
    perturbed.served += 1;
    CHECK(counterMismatches(untraced, perturbed).size() == 2);
}

void
leafGateVerdicts()
{
    constexpr std::uint64_t kLeaves = 1u << 16;
    SplitMix64 rng(7);
    std::vector<palermo::Leaf> uniform;
    for (int i = 0; i < 8192; ++i)
        uniform.push_back(rng.below(kLeaves));
    const LeafGate pass = leafGate(uniform, kLeaves);
    CHECK(pass.pass);
    CHECK(pass.observations == 8192);

    // A leak confined to a quarter of the tree fails both halves.
    std::vector<palermo::Leaf> leaky;
    for (int i = 0; i < 8192; ++i)
        leaky.push_back(rng.below(kLeaves / 4));
    const LeafGate leak = leafGate(leaky, kLeaves);
    CHECK(!leak.pass);
    CHECK(!leak.firstHalfUniform && !leak.secondHalfUniform);
    CHECK(leak.chi2Ratio > 10.0);

    // Non-uniformity in one half only does not replicate.
    std::vector<palermo::Leaf> one_half = uniform;
    for (std::size_t i = 0; i < one_half.size() / 2; ++i)
        one_half[i] = rng.below(kLeaves / 4);
    const LeafGate half = leafGate(one_half, kLeaves);
    CHECK(!half.firstHalfUniform && half.secondHalfUniform);

    // Walking the leaves in order is uniform but serially correlated.
    std::vector<palermo::Leaf> sweep;
    for (std::uint64_t i = 0; i < 8192; ++i)
        sweep.push_back((i * 8) % kLeaves);
    const LeafGate correlated = leafGate(sweep, kLeaves);
    CHECK(!correlated.pass);
    CHECK(correlated.lag1 > correlated.lag1Bound);

    CHECK(!leafGate({}, kLeaves).pass);
}

void
medianAndResult()
{
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
    const std::string line = resultJson(
        true, 10, 1, {{"run_s", 1.25, "s"}, {"ok_frac", 0.9, "frac"}});
    CHECK(line
          == "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
             "\"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
             "\"ok_frac\": {\"value\": 0.90000000000000002, "
             "\"unit\": \"frac\"}}}");
}

void
inputsRepeat()
{
    const auto a = uniformTrace(11, 1u << 20, 100, 0.2);
    const auto b = uniformTrace(11, 1u << 20, 100, 0.2);
    const auto c = uniformTrace(12, 1u << 20, 100, 0.2);
    bool same = true;
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        same = same && a[i].line == b[i].line && a[i].write == b[i].write;
        differs = differs || a[i].line != c[i].line;
    }
    CHECK(same && differs);

    const ArrivalSpec spec{2000, 1.5, 4, 1u << 10, 0.99, 0.3};
    const auto arrivals = openLoopArrivals(5, spec);
    bool ordered = true;
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        ordered = ordered && arrivals[i - 1].due <= arrivals[i].due;
    CHECK(ordered);
    // 2000 Poisson arrivals at 1.5/kcyc span about 1.33M cycles.
    CHECK(arrivals.back().due > 1'200'000 && arrivals.back().due < 1'470'000);
}

} // namespace

int
main()
{
    percentileSelection();
    tenBeyondRule();
    quantileOrder();
    okFractionAccounting();
    tracedCounterCheck();
    leafGateVerdicts();
    medianAndResult();
    inputsRepeat();
    if (failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench metric tests passed\n");
    return 0;
}
