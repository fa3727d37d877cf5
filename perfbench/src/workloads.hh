/**
 * @file
 * The benchmark's workloads. README.md beside this directory gives the
 * full notes: why each workload exists, which layer metric should move
 * which end-to-end metric, the model's validation status and the host
 * noise the bounds in BENCHMARK.json were sized against.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "sim/system_config.hh"

namespace perfbench {

/** Which public entry point of the program a workload drives. */
enum class Driver
{
    Session, ///< Registry-built protocol in a frontend-bound SimSession.
    Service, ///< ObliviousKvService fed by an open-loop arrival schedule.
};

/** One workload: the program configuration and its traffic. */
struct WorkloadSpec
{
    const char *name;
    Driver driver;
    palermo::ProtocolKind protocol;
    unsigned log2Blocks;
    std::uint64_t requests; ///< Offered in one run, warmup included.
    std::uint64_t warmup;   ///< Completions before the measured window.
    double writeFraction;

    // Service workloads only.
    unsigned tenants = 0;
    double ratePerKilocycle = 0.0;
    std::uint64_t keysPerTenant = 0;
    double zipfAlpha = 0.0;
    std::size_t queueCapacity = 0;
};

/** The workload named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Comma-separated workload names, for usage text. */
std::string workloadNames();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
