/**
 * @file
 * Input generation. Every input the program sees is made here from the
 * workload seed with the benchmark's own generator, so the program
 * receives only the generated inputs, never the seed.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "trace/trace_gen.hh"

namespace perfbench {

/** SplitMix64: small, fully specified, identical on every platform. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, bound) by 128-bit multiply-shift. */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform in [0, 1) with 53 random bits. */
    double unit();

  private:
    std::uint64_t state_;
};

/** @p count LLC misses to uniform random lines, @p write_fraction stores. */
std::vector<palermo::TraceRecord>
uniformTrace(std::uint64_t seed, std::uint64_t lines, std::uint64_t count,
             double write_fraction);

/**
 * Replays a pre-generated miss list through the Frontend's TraceGen
 * seam. The list must outlive the replayer; reading past its end is a
 * benchmark bug and aborts.
 */
class ReplayTrace : public palermo::TraceGen
{
  public:
    ReplayTrace(const std::vector<palermo::TraceRecord> &records,
                std::uint64_t lines);

    const char *name() const override { return "perfbench-uniform"; }
    palermo::TraceRecord next() override;

  private:
    const std::vector<palermo::TraceRecord> *records_;
    std::size_t cursor_ = 0;
};

/** One keyed client arrival for the serving layer. */
struct Arrival
{
    palermo::Tick due; ///< Simulated tick the client issues it.
    unsigned tenant;
    std::uint64_t key;
    bool write;
};

/** Open-loop traffic shape. */
struct ArrivalSpec
{
    std::uint64_t count;
    double ratePerKilocycle; ///< Poisson rate.
    unsigned tenants;        ///< Tenant drawn uniformly per arrival.
    std::uint64_t keysPerTenant;
    double zipfAlpha;        ///< Key popularity skew within a tenant.
    double writeFraction;
};

/**
 * Poisson arrivals (exponential gaps accumulated in double, due tick =
 * floor of the exact instant) with Zipf-ranked keys.
 */
std::vector<Arrival> openLoopArrivals(std::uint64_t seed,
                                      const ArrivalSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
