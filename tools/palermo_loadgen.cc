/**
 * @file
 * palermo_loadgen: open/closed-loop load generation against the
 * oblivious KV serving layer.
 *
 * Each design point (one --openloop rate or one --closedloop
 * concurrency) runs a fresh ObliviousKvService to completion and
 * prints one table row; --json renders the whole sweep as a
 * palermo-metrics-v1 document whose bytes are a deterministic
 * function of the flags (identical across repeat runs). A rate sweep
 * therefore yields a
 * throughput-vs-tail-latency saturation curve from one invocation.
 *
 * Exit status: 0 on success, 1 on sanity-gate or I/O failure, 2 on
 * usage errors.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/wall_rate.hh"
#include "service/loadgen.hh"
#include "sim/run_cli.hh"

using namespace palermo;

int
main(int argc, char **argv)
{
    setVerbose(false);

    LoadgenOptions options;
    std::string error;
    if (!parseLoadgenArgs(argc - 1, argv + 1, &options, &error)) {
        std::fprintf(stderr, "palermo_loadgen: %s\n\n%s", error.c_str(),
                     loadgenUsage().c_str());
        return 2;
    }
    if (options.help) {
        std::fputs(loadgenUsage().c_str(), stdout);
        return 0;
    }
    if (options.listProtocols) {
        std::fputs(protocolListing().c_str(), stdout);
        return 0;
    }

    const std::vector<LoadPointSpec> points = expandLoadPoints(options);

    std::FILE *table = options.jsonPath == "-" ? stderr : stdout;
    std::fprintf(table, "%-40s%12s%12s%10s%10s%10s\n", "point",
                 "ach/kcyc", "off/kcyc", "lat-p50", "lat-p99",
                 "rejected");

    std::vector<ServiceRunRecord> records;
    records.reserve(points.size());
    WallRateMeter wall;
    std::uint64_t wall_completed = 0;
    for (const LoadPointSpec &spec : points) {
        ServiceRunRecord record = runLoadPoint(options, spec);
        const ServiceScopeSnapshot &global = record.service.global;
        std::fprintf(table, "%-40s%12.3f%12.3f%10.0f%10.0f%10llu\n",
                     record.base.point.id.c_str(),
                     record.service.achievedPerKilocycle,
                     record.service.offeredPerKilocycle,
                     global.latency.quantile(0.50),
                     global.latency.quantile(0.99),
                     static_cast<unsigned long long>(global.rejected));
        if (options.progress) {
            // Wall-clock throughput (reporting only — never in JSON),
            // so the host cost of each point is visible in the sweep.
            wall_completed += global.completed;
            std::fprintf(stderr,
                         "progress: %zu/%zu points  wall-req/s %.0f\n",
                         records.size() + 1, points.size(),
                         wall.perSecond(wall_completed));
        }
        records.push_back(std::move(record));
    }

    bool ok = true;
    if (!options.jsonPath.empty())
        ok = MetricsJson::writeFile(options.jsonPath,
                                    loadgenDocument(records));

    std::vector<std::string> problems;
    if (!serviceSanityCheck(records, &problems)) {
        ok = false;
        for (const std::string &problem : problems)
            std::fprintf(stderr, "palermo_loadgen: SANITY: %s\n",
                         problem.c_str());
    }
    return ok ? 0 : 1;
}
