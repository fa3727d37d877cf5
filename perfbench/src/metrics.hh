/**
 * @file
 * The benchmark's own metric code: exact order statistics over
 * per-request samples, request accounting, the traced-vs-untraced
 * counter check, the leaf-trace security gate, and the result line.
 *
 * Nothing here reads a histogram: every latency figure is an exact
 * order statistic of the samples the run produced.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace perfbench {

/** Samples that must lie strictly above a reported percentile. */
constexpr std::size_t kMinBeyond = 10;

/**
 * Nearest-rank percentile: the 0-based index ceil(p * n) - 1 into the
 * sorted samples, clamped to [0, n - 1]. Requires n >= 1.
 */
std::size_t percentileIndex(std::size_t n, double p);

/** Samples sorted after the percentile's index (n - 1 - index). */
std::size_t samplesBeyond(std::size_t n, double p);

/** Exact order statistics of one latency sample set. */
struct LatencySummary
{
    std::size_t samples = 0;
    double min = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double max = 0.0;

    bool operator==(const LatencySummary &) const = default;
};

/** Sort the samples and pick min, p50, p99 and max. */
LatencySummary summarize(std::vector<double> samples);

/**
 * Gate on a summary: at least kMinBeyond samples beyond p99, and
 * min <= p50 <= p99 <= max. Appends one line per violation, prefixed
 * with @p what, and returns whether all hold.
 */
bool checkLatency(const LatencySummary &summary, const std::string &what,
                  std::vector<std::string> *problems);

/**
 * Requests completed / requests offered. A rejected or unserved
 * request is offered but not completed, so it counts as a failure.
 * 0 offered is reported as 0.
 */
double okFraction(std::uint64_t offered, std::uint64_t completed);

/** Simulated counters a traced run must reproduce exactly. */
struct SimCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t served = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;

    bool operator==(const SimCounters &) const = default;
};

/** One line per counter that differs between the two runs. */
std::vector<std::string> counterMismatches(const SimCounters &untraced,
                                           const SimCounters &traced);

/** Verdict of the security gate on an attacker-visible leaf trace. */
struct LeafGate
{
    std::uint64_t observations = 0;
    double chi2Ratio = 0.0; ///< Whole-trace statistic / 1% threshold.
    bool firstHalfUniform = true;
    bool secondHalfUniform = true;
    double lag1 = 0.0;
    double lag1Bound = 0.0;
    bool pass = false;
};

/**
 * Run the src/security chi-square uniformity test and lag-1 serial
 * correlation on a data-tree leaf sequence over @p leaf_space leaves.
 *
 * The chi-square test rejects at 1% significance, so a truly uniform
 * trace fails it on one seed in a hundred. Each benchmark session runs
 * dozens of seeds, so the gate counts non-uniformity only when it
 * replicates: the trace fails when both of its halves, which are
 * independent samples of the same leaf process, fail the 1% test
 * (1e-4 under uniformity). The lag-1 bound is the one the scenario
 * engine applies: max(0.1, 3 / sqrt(n)).
 */
LeafGate leafGate(const std::vector<palermo::Leaf> &leaves,
                  std::uint64_t leaf_space);

/** Median of a non-empty set (mean of the middle pair when even). */
double median(std::vector<double> values);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The result object: {"correct", "attempted", "failed", "metrics"},
 * each metric as {"value", "unit"} with every significant digit.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
