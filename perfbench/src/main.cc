/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
 *
 * --trace 0 repeats untraced runs, each in a freshly forked child so
 * that every run pays a new process's first-touch costs and owns its
 * peak RSS: at least kMinRuns, then more until --seconds of wall time
 * have passed. It reports the end-to-end metrics: host figures as the
 * median over runs, simulated figures of the first run, which every
 * other run must repeat exactly.
 *
 * --trace 1 makes one untraced reference run in a forked child, then
 * one traced run, from the same fresh heap, and reports the per-layer
 * split. The traced run must reproduce the reference's simulated
 * counters exactly.
 *
 * The last line of standard output is the result object. Any failed
 * correctness gate is listed on standard error, marks the result
 * incorrect and makes the exit status 1.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/log.hh"
#include "metrics.hh"
#include "runners.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/**
 * Untraced runs per measurement at the least, however short --seconds
 * is. Memory-bound runs on a shared host vary by about 15% from one
 * process to the next, so a median needs a few of them.
 */
constexpr std::size_t kMinRuns = 4;
/** Cap on untraced runs, so a fast host stays inside its time limit. */
constexpr std::size_t kMaxRuns = 15;

struct Options
{
    const WorkloadSpec *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

bool
parseUnsigned(const char *text, std::uint64_t *value)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    *value = parsed;
    return true;
}

bool
parseArgs(int argc, char **argv, Options *options)
{
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t number = 0;
        if (flag == "--workload" && value != nullptr) {
            options->workload = findWorkload(value);
            if (options->workload == nullptr)
                return false;
        } else if (flag == "--seed" && parseUnsigned(value, &number)) {
            options->seed = number;
        } else if (flag == "--seconds" && parseUnsigned(value, &number)
                   && number >= 1) {
            options->seconds = static_cast<double>(number);
        } else if (flag == "--trace" && parseUnsigned(value, &number)
                   && number <= 1) {
            options->trace = number == 1;
        } else {
            return false;
        }
    }
    return options->workload != nullptr;
}

double
peakRssMegabytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6; // KiB.
}

/** FNV-1a over the leaf sequence. */
std::uint64_t
leafDigest(const std::vector<palermo::Leaf> &leaves)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const palermo::Leaf leaf : leaves) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (leaf >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

/** What a forked untraced run hands back to its parent. */
struct ChildResult
{
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    double peakRssMb = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t problems = 0; ///< The child listed them on stderr.
    std::uint64_t leafDigest = 0;
    SimView sim;
};
static_assert(std::is_trivially_copyable_v<ChildResult>);

void
listProblems(const std::vector<std::string> &problems)
{
    for (const std::string &problem : problems)
        std::fprintf(stderr, "perfbench: gate failed: %s\n",
                     problem.c_str());
}

/**
 * One untraced run in a forked child, so it starts from this process's
 * fresh heap and its peak RSS is its own. False if the child did not
 * deliver a result.
 */
bool
runInChild(const WorkloadSpec &spec, const Inputs &inputs,
           ChildResult *result)
{
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        const RunOutcome run = runUntraced(spec, inputs);
        listProblems(run.problems);
        ChildResult out;
        out.setupSeconds = run.setupSeconds;
        out.runSeconds = run.runSeconds;
        out.peakRssMb = peakRssMegabytes();
        out.offered = run.offered;
        out.completed = run.completed;
        out.problems = run.problems.size();
        out.leafDigest = leafDigest(run.leaves);
        out.sim = run.sim;
        const bool sent =
            write(fds[1], &out, sizeof out) == static_cast<ssize_t>(sizeof out);
        std::fflush(nullptr);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    std::size_t got = 0;
    auto *bytes = reinterpret_cast<char *>(result);
    while (got < sizeof *result) {
        const ssize_t n = read(fds[0], bytes + got, sizeof *result - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return got == sizeof *result && WIFEXITED(status)
        && WEXITSTATUS(status) == 0;
}

int
report(const std::vector<std::string> &problems, std::uint64_t attempted,
       std::uint64_t failed, const std::vector<Metric> &metrics)
{
    listProblems(problems);
    std::printf("%s\n",
                resultJson(problems.empty(), attempted, failed, metrics)
                    .c_str());
    return problems.empty() ? 0 : 1;
}

int
runEndToEnd(const Options &options, const Inputs &inputs)
{
    const WorkloadSpec &spec = *options.workload;
    std::vector<ChildResult> runs;
    std::vector<std::string> problems;
    const Clock::time_point start = Clock::now();
    while (runs.size() < kMinRuns
           || (runs.size() < kMaxRuns
               && seconds(Clock::now() - start) < options.seconds)) {
        ChildResult run;
        if (!runInChild(spec, inputs, &run)) {
            problems.push_back("untraced run " + std::to_string(runs.size())
                               + " died without a result");
            break;
        }
        runs.push_back(run);
        std::fprintf(stderr, "perfbench: %s run %zu: setup %.3f s, "
                             "run %.3f s\n",
                     spec.name, runs.size(), run.setupSeconds,
                     run.runSeconds);
    }
    if (runs.empty())
        return report(problems, 1, 1, {});

    std::vector<double> setup;
    std::vector<double> run;
    std::vector<double> rss;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    const ChildResult &first = runs.front();
    for (const ChildResult &result : runs) {
        if (result.problems != 0)
            problems.push_back("a run failed its gates (listed above)");
        if (!(result.sim == first.sim)
            || result.leafDigest != first.leafDigest)
            problems.push_back("simulated results differ between runs "
                               "of the same inputs");
        setup.push_back(result.setupSeconds);
        run.push_back(result.runSeconds);
        rss.push_back(result.peakRssMb);
        offered += result.offered;
        completed += result.completed;
    }

    const std::vector<Metric> metrics = {
        {"setup_s", median(setup), "s"},
        {"run_s", median(run), "s"},
        {"peak_rss_mb", median(rss), "MB"},
        {"sim_req_per_kcyc", first.sim.reqPerKilocycle, "req/kcyc"},
        {"sim_lat_p50_cyc", first.sim.latency.p50, "cyc"},
        {"sim_lat_p99_cyc", first.sim.latency.p99, "cyc"},
        {"ok_frac", okFraction(offered, completed), "frac"},
    };
    return report(problems, offered, offered - completed, metrics);
}

int
runPerLayer(const Options &options, const Inputs &inputs)
{
    const WorkloadSpec &spec = *options.workload;
    std::vector<std::string> problems;
    ChildResult reference;
    if (!runInChild(spec, inputs, &reference))
        return report({"untraced reference run died without a result"}, 1, 1,
                      {});
    if (reference.problems != 0)
        problems.push_back("the untraced reference run failed its gates");

    Spans spans;
    const RunOutcome traced = runTraced(spec, inputs, &spans);
    problems.insert(problems.end(), traced.problems.begin(),
                    traced.problems.end());
    const std::vector<std::string> mismatches =
        counterMismatches(reference.sim.counters, traced.sim.counters);
    problems.insert(problems.end(), mismatches.begin(), mismatches.end());
    if (!(traced.sim.latency == reference.sim.latency))
        problems.push_back("traced latency samples differ from untraced");
    if (leafDigest(traced.leaves) != reference.leafDigest)
        problems.push_back("traced leaf trace differs from untraced");

    const Clock::time_point gate_start = Clock::now();
    const LeafGate gate = leafGate(traced.leaves, traced.leafSpace);
    const double gate_seconds = seconds(Clock::now() - gate_start);

    // Simulated layer state comes from the reference run (the traced
    // run reproduces it); host time from the traced run's spans. A
    // layer the workload's entry point does not expose reads 0.
    const SimView &sim = reference.sim;
    const double cycles = static_cast<double>(traced.sim.counters.cycles);
    const double served = static_cast<double>(traced.sim.counters.served);
    const double build = seconds(spans.oramBuild);
    const double controller = seconds(spans.controllerTick)
        + seconds(spans.controllerAdmit) + seconds(spans.controllerComplete);
    const double mem = seconds(spans.memTick);
    const double service = seconds(spans.serviceOffer)
        + seconds(spans.serviceStep) + seconds(spans.serviceDrain);
    const double blocks = static_cast<double>(1ull << spec.log2Blocks);
    const bool serviced = spec.driver == Driver::Service;

    const std::vector<Metric> metrics = {
        {"oram.build_s", build, "s"},
        {"oram.build_ns_per_block", build * 1e9 / blocks, "ns/block"},
        {"oram.stash_max", static_cast<double>(sim.stashMax), "blocks"},
        {"controller.tick_s", seconds(spans.controllerTick), "s"},
        {"controller.admit_s", seconds(spans.controllerAdmit), "s"},
        {"controller.complete_s", seconds(spans.controllerComplete), "s"},
        {"controller.ns_per_req", controller * 1e9 / served, "ns/req"},
        {"controller.sync_frac", sim.syncFrac, "frac"},
        {"controller.busy_frac", sim.busyFrac, "frac"},
        {"mem.tick_s", mem, "s"},
        {"mem.ns_per_cycle", mem * 1e9 / cycles, "ns/cyc"},
        {"mem.reads_per_req", sim.readsPerReq, "reads/req"},
        {"mem.writes_per_req", sim.writesPerReq, "writes/req"},
        {"mem.row_hit_rate", sim.rowHitRate, "frac"},
        {"mem.bw_util", sim.bwUtil, "frac"},
        {"mem.avg_outstanding", sim.avgOutstanding, "reqs"},
        {"mem.avg_read_lat_cyc", sim.avgReadLatency, "cyc"},
        {"sim.warmup_s", seconds(spans.warmup), "s"},
        {"sim.measured_s", seconds(spans.measured), "s"},
        {"sim.drain_s", seconds(spans.drain), "s"},
        {"sim.cycles", cycles, "cyc"},
        {"sim.ns_per_cycle", traced.runSeconds * 1e9 / cycles, "ns/cyc"},
        {"sim.self_s", traced.runSeconds - controller - mem - service, "s"},
        {"sim.lat_samples", static_cast<double>(sim.latency.samples),
         "count"},
        {"service.offer_s", seconds(spans.serviceOffer), "s"},
        {"service.step_s", seconds(spans.serviceStep), "s"},
        {"service.drain_s", seconds(spans.serviceDrain), "s"},
        {"service.ns_per_cycle", service * 1e9 / cycles, "ns/cyc"},
        {"service.offered",
         serviced ? static_cast<double>(traced.offered) : 0.0, "count"},
        {"service.rejected", static_cast<double>(sim.rejected), "count"},
        {"service.queue_hwm", static_cast<double>(sim.queueHighWatermark),
         "count"},
        {"service.tenant_p99_max_cyc", sim.tenantP99Max, "cyc"},
        {"service.tenant_p99_min_cyc", sim.tenantP99Min, "cyc"},
        {"security.leaf_obs", static_cast<double>(gate.observations),
         "count"},
        {"security.chi2_ratio", gate.chi2Ratio, "ratio"},
        {"security.lag1_corr", gate.lag1, "corr"},
        {"security.gate_s", gate_seconds, "s"},
        {"trace.overhead_frac",
         traced.runSeconds / reference.runSeconds - 1.0, "frac"},
    };
    const std::uint64_t offered = reference.offered + traced.offered;
    const std::uint64_t completed = reference.completed + traced.completed;
    return report(problems, offered, offered - completed, metrics);
}

} // namespace

int
main(int argc, char **argv)
{
    palermo::setVerbose(false);
    Options options;
    if (!parseArgs(argc, argv, &options)) {
        std::fprintf(stderr,
                     "usage: %s --workload {%s} [--seed N] [--seconds N] "
                     "[--trace 0|1]\n",
                     argv[0], workloadNames().c_str());
        return 2;
    }
    const Inputs inputs = makeInputs(*options.workload, options.seed);
    return options.trace ? runPerLayer(options, inputs)
                         : runEndToEnd(options, inputs);
}
