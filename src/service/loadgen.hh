/**
 * @file
 * Open/closed-loop load generation against ObliviousKvService.
 *
 * The measurement half of the serving story: open-loop mode fires
 * arrivals at a configured rate (Poisson or fixed-interval, in
 * simulated time) whether or not the service keeps up — the only mode
 * that exposes saturation and tail-latency blow-up — while closed-loop
 * mode holds a fixed number of outstanding requests, the classic
 * "N clients, think time zero" discipline. A rate (or concurrency)
 * sweep emits one palermo-metrics-v1 record per design point, so a
 * throughput-vs-p99 saturation curve falls out of one invocation.
 *
 * Everything is a deterministic function of the options: arrivals,
 * key draws, and tenant picks come from seeded RNGs, time is the
 * simulated clock, and records render byte-identically across repeat
 * runs. Kept in the library (not
 * tools/) so the flag parser and the point runner are unit-testable,
 * mirroring run_cli.
 */

#ifndef PALERMO_SERVICE_LOADGEN_HH
#define PALERMO_SERVICE_LOADGEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/arrival.hh"
#include "service/kv_service.hh"
#include "sim/metrics_json.hh"

namespace palermo {

/** Everything palermo_loadgen accepts on its command line. */
struct LoadgenOptions
{
    ProtocolKind protocol = ProtocolKind::Palermo;
    bool paperGeometry = false;    ///< --paper: Table III geometry.
    std::uint64_t blocks = 0;      ///< --blocks (0 = keep default).
    bool seedSet = false;
    std::uint64_t seed = 0;        ///< --seed (when seedSet).

    /** --openloop: target rates in requests per kilocycle. */
    std::vector<double> openloopRates;
    /** --closedloop: outstanding-request counts. */
    std::vector<unsigned> closedloopConcurrency;

    ArrivalProcess arrival = ArrivalProcess::Poisson; ///< --arrival.
    KeyDist dist = KeyDist::Zipf;  ///< --dist zipf|uniform.
    double zipfAlpha = 0.99;       ///< --zipf-alpha.
    double writeFraction = 0.0;    ///< --write-frac: PUT probability.
    unsigned tenants = 1;          ///< --tenants.

    std::uint64_t requests = 2000; ///< --requests: measured per point.
    double warmupFraction = 0.5;   ///< --warmup: extra, as a fraction.
    std::uint64_t duration = 0;    ///< --duration: arrival cap, cycles.

    std::uint64_t queueCapacity = 64;              ///< --queue-capacity.
    QueuePolicy queuePolicy = QueuePolicy::Reject; ///< --queue-policy.
    std::uint64_t sessionDepth = 8;                ///< --depth.

    std::string jsonPath;          ///< --json PATH ("-" = stdout).
    bool progress = false;         ///< --progress: wall-rate lines.
    bool listProtocols = false;    ///< --list-protocols (registry).
    bool help = false;             ///< --help / -h.

    /** Resolve the base SystemConfig these options describe. */
    SystemConfig baseConfig() const;
};

/** Parse palermo_loadgen argv (excluding argv[0]); see parseRunArgs. */
bool parseLoadgenArgs(int argc, const char *const *argv,
                      LoadgenOptions *options, std::string *error);

/** Usage text for palermo_loadgen. */
std::string loadgenUsage();

/** One fully-resolved load-generation design point. */
struct LoadPointSpec
{
    std::size_t index = 0;   ///< Position in the sweep.
    bool closedLoop = false;
    double rate = 0.0;       ///< Open loop: req/kilocycle target.
    unsigned concurrency = 0; ///< Closed loop: outstanding requests.
};

/** A design point with both the simulator and the service view. */
struct ServiceRunRecord
{
    RunRecord base;          ///< Standard record (config + RunMetrics).
    ServiceSnapshot service; ///< The client-visible serving metrics.
    LoadPointSpec spec;
};

/**
 * Expand the sweep: one point per --openloop rate, then one per
 * --closedloop concurrency, in flag order. Never empty (the parser
 * defaults to closed-loop 4 when neither mode is given).
 */
std::vector<LoadPointSpec> expandLoadPoints(const LoadgenOptions &options);

/**
 * Run one design point to completion: fresh service, warmup, measured
 * window, full drain. Deterministic in (options, spec).
 */
ServiceRunRecord runLoadPoint(const LoadgenOptions &options,
                              const LoadPointSpec &spec);

/**
 * Render the sweep as one palermo-metrics-v1 document: the standard
 * record shape plus a per-point "service" block and mode fields, and
 * a derived max-achieved-rate scalar (the measured saturation
 * throughput of the sweep).
 */
std::string loadgenDocument(const std::vector<ServiceRunRecord> &records);

/**
 * Serving-layer sanity gate: completions happened, achieved rate is
 * finite and positive, tail quantiles are ordered (p99 >= p50),
 * nothing was lost (accepted == completed after drain), and the stash
 * never overflowed. Appends one line per problem; true when clean.
 */
bool serviceSanityCheck(const std::vector<ServiceRunRecord> &records,
                        std::vector<std::string> *problems);

} // namespace palermo

#endif // PALERMO_SERVICE_LOADGEN_HH
