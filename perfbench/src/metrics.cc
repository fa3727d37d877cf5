/**
 * @file
 * Exact percentiles, request accounting, counter comparison, the
 * leaf-trace gate and result-line rendering.
 */

#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "security/uniformity.hh"

namespace perfbench {

namespace {

/**
 * Chi-square bins for n observations: 64, halved while fewer than
 * eight observations would land in a bin (the scenario engine's
 * rule), never more than the leaf space.
 */
std::size_t
uniformityBins(std::size_t observations, std::uint64_t leaf_space)
{
    std::size_t bins = 64;
    while (bins > 8 && observations < bins * 8)
        bins /= 2;
    if (leaf_space < bins)
        bins = static_cast<std::size_t>(leaf_space);
    return bins;
}

bool
halfUniform(std::vector<palermo::Leaf>::const_iterator first,
            std::vector<palermo::Leaf>::const_iterator last,
            std::uint64_t leaf_space)
{
    const std::vector<palermo::Leaf> half(first, last);
    return palermo::leafUniformity(
               half, leaf_space, uniformityBins(half.size(), leaf_space))
        .uniform;
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

} // namespace

std::size_t
percentileIndex(std::size_t n, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    return rank == 0 ? 0 : std::min(rank, n) - 1;
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - 1 - percentileIndex(n, p);
}

LatencySummary
summarize(std::vector<double> samples)
{
    LatencySummary summary;
    summary.samples = samples.size();
    if (samples.empty())
        return summary;
    std::sort(samples.begin(), samples.end());
    summary.min = samples.front();
    summary.max = samples.back();
    summary.p50 = samples[percentileIndex(samples.size(), 0.50)];
    summary.p99 = samples[percentileIndex(samples.size(), 0.99)];
    return summary;
}

bool
checkLatency(const LatencySummary &summary, const std::string &what,
             std::vector<std::string> *problems)
{
    const std::size_t before = problems->size();
    const std::size_t beyond = samplesBeyond(summary.samples, 0.99);
    if (beyond < kMinBeyond)
        problems->push_back(what + ": " + std::to_string(beyond)
                            + " samples beyond p99 (need "
                            + std::to_string(kMinBeyond) + ")");
    if (!(summary.min <= summary.p50 && summary.p50 <= summary.p99
          && summary.p99 <= summary.max))
        problems->push_back(what + ": quantiles out of order (min "
                            + number(summary.min) + ", p50 "
                            + number(summary.p50) + ", p99 "
                            + number(summary.p99) + ", max "
                            + number(summary.max) + ")");
    return problems->size() == before;
}

double
okFraction(std::uint64_t offered, std::uint64_t completed)
{
    return offered == 0 ? 0.0
                        : static_cast<double>(completed)
            / static_cast<double>(offered);
}

std::vector<std::string>
counterMismatches(const SimCounters &untraced, const SimCounters &traced)
{
    std::vector<std::string> problems;
    const auto compare = [&](const char *name, std::uint64_t a,
                             std::uint64_t b) {
        if (a != b)
            problems.push_back(std::string("traced ") + name + " "
                               + std::to_string(b) + " != untraced "
                               + std::to_string(a));
    };
    compare("cycles", untraced.cycles, traced.cycles);
    compare("served", untraced.served, traced.served);
    compare("dram reads", untraced.dramReads, traced.dramReads);
    compare("dram writes", untraced.dramWrites, traced.dramWrites);
    return problems;
}

LeafGate
leafGate(const std::vector<palermo::Leaf> &leaves,
         std::uint64_t leaf_space)
{
    LeafGate gate;
    gate.observations = leaves.size();
    if (leaves.size() < 16 || leaf_space < 2)
        return gate; // Too few observations to judge: fail.

    const palermo::ChiSquareResult whole = palermo::leafUniformity(
        leaves, leaf_space, uniformityBins(leaves.size(), leaf_space));
    gate.chi2Ratio = whole.statistic / whole.threshold;
    const auto middle = leaves.begin()
        + static_cast<std::ptrdiff_t>(leaves.size() / 2);
    gate.firstHalfUniform = halfUniform(leaves.begin(), middle, leaf_space);
    gate.secondHalfUniform = halfUniform(middle, leaves.end(), leaf_space);

    gate.lag1 = palermo::serialCorrelation(leaves);
    gate.lag1Bound = std::max(
        0.1, 3.0 / std::sqrt(static_cast<double>(leaves.size())));
    gate.pass = (gate.firstHalfUniform || gate.secondHalfUniform)
        && std::fabs(gate.lag1) <= gate.lag1Bound;
    return gate;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << '"' << metrics[i].name
            << "\": {\"value\": " << number(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    out << "}}";
    return out.str();
}

} // namespace perfbench
