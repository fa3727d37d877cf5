/**
 * @file
 * One run of a workload, untraced or traced.
 *
 * Untraced runs use only the program's public entry points: a
 * registry-built SimSession stepped by finish(), or an
 * ObliviousKvService fed by offer/step/drainAll. Traced runs time the
 * calls into each layer from here: for session workloads through the
 * benchmark's own copy of the session cycle loop (quiescent-window path
 * included), for the service workload around the service's public
 * calls, since the service owns its session.
 */

#ifndef PERFBENCH_RUNNERS_HH
#define PERFBENCH_RUNNERS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "inputs.hh"
#include "metrics.hh"
#include "workloads.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Everything a run consumes, generated from the workload seed. */
struct Inputs
{
    std::vector<palermo::TraceRecord> misses; ///< Session workloads.
    std::vector<Arrival> arrivals;            ///< Service workload.
};

Inputs makeInputs(const WorkloadSpec &spec, std::uint64_t seed);

/**
 * Simulated results of one run. Deterministic in (workload, inputs), so
 * repeated runs must agree exactly. A layer the workload's entry point
 * does not expose stays 0.
 */
struct SimView
{
    SimCounters counters;
    double reqPerKilocycle = 0.0;
    LatencySummary latency;
    std::size_t stashMax = 0;
    double syncFrac = 0.0;
    double busyFrac = 0.0; ///< Session workloads only.
    double readsPerReq = 0.0;
    double writesPerReq = 0.0;
    double rowHitRate = 0.0;
    double bwUtil = 0.0;
    double avgOutstanding = 0.0;
    double avgReadLatency = 0.0;

    // Service workload only.
    std::uint64_t rejected = 0;
    std::uint64_t queueHighWatermark = 0;
    double tenantP99Max = 0.0;
    double tenantP99Min = 0.0;

    bool operator==(const SimView &) const = default;
};

/** One run's outcome. */
struct RunOutcome
{
    double setupSeconds = 0.0; ///< Construction through tree prefill.
    double runSeconds = 0.0;   ///< First simulated cycle to drained.
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    SimView sim;
    std::vector<palermo::Leaf> leaves; ///< Attacker-visible data leaves.
    std::uint64_t leafSpace = 0;
    std::vector<std::string> problems; ///< Failed correctness gates.
};

/** Host time per layer boundary, accumulated by a traced run. */
struct Spans
{
    Clock::duration oramBuild{};
    Clock::duration controllerTick{};
    Clock::duration controllerAdmit{};
    Clock::duration controllerComplete{};
    Clock::duration memTick{};
    Clock::duration serviceOffer{};
    Clock::duration serviceStep{};
    Clock::duration serviceDrain{};
    Clock::duration warmup{};
    Clock::duration measured{};
    Clock::duration drain{};
};

inline double
seconds(Clock::duration duration)
{
    return std::chrono::duration<double>(duration).count();
}

/** Run through the program's own loop, with no timer inside. */
RunOutcome runUntraced(const WorkloadSpec &spec, const Inputs &inputs);

/** Run with every layer call timed into @p spans. */
RunOutcome runTraced(const WorkloadSpec &spec, const Inputs &inputs,
                     Spans *spans);

} // namespace perfbench

#endif // PERFBENCH_RUNNERS_HH
