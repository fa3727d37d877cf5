/**
 * @file
 * Untraced and traced runs of the session and service workloads, and
 * the correctness gates every run applies.
 */

#include "runners.hh"

#include <algorithm>
#include <memory>

#include "controller/controller.hh"
#include "mem/dram_system.hh"
#include "oram/hierarchy.hh"
#include "service/kv_service.hh"
#include "sim/frontend.hh"
#include "sim/protocol_registry.hh"
#include "sim/session.hh"

namespace perfbench {

namespace {

/** The session's runaway guard, mirrored by the traced loop. */
constexpr palermo::Tick kTickLimit = 2'000'000'000ull;

/** The session's cap on one batched quiescent epoch in finish(). */
constexpr std::uint64_t kBulkChunk = 1u << 16;

/**
 * Charges the time between consecutive laps to Spans fields: one clock
 * read per layer boundary, so back-to-back layer calls share their
 * boundary reads (a read costs about 50 ns on the reference host).
 */
class LapTimer
{
  public:
    LapTimer() : last_(Clock::now()) {}

    /** Start timing from now, charging the gap to no one. */
    void restart() { last_ = Clock::now(); }

    /** Charge the time since the previous lap to @p total. */
    void lap(Clock::duration &total)
    {
        const Clock::time_point now = Clock::now();
        total += now - last_;
        last_ = now;
    }

  private:
    Clock::time_point last_;
};

palermo::SystemConfig
systemConfig(const WorkloadSpec &spec)
{
    palermo::SystemConfig config;
    config.protocol.numBlocks = 1ull << spec.log2Blocks;
    config.totalRequests = spec.requests;
    config.warmupFraction = static_cast<double>(spec.warmup)
        / static_cast<double>(spec.requests);
    return config;
}

std::unique_ptr<palermo::Frontend>
makeFrontend(const palermo::SystemConfig &config, const Inputs &inputs)
{
    // Saturated closed-loop issue: the constant-rate arguments are
    // unused, and the seed only draws store payloads.
    return std::make_unique<palermo::Frontend>(
        std::make_unique<ReplayTrace>(inputs.misses,
                                      config.protocol.numBlocks),
        config.totalRequests, /*constant_rate=*/false,
        config.issueInterval, /*demand_probability=*/1.0, config.seed);
}

std::vector<double>
latencies(const std::vector<palermo::LatencySample> &samples)
{
    std::vector<double> values;
    values.reserve(samples.size());
    for (const palermo::LatencySample &sample : samples)
        values.push_back(sample.latency);
    return values;
}

/** Gates shared by every run: quantile sanity and the leaf trace. */
void
commonGates(RunOutcome *out)
{
    checkLatency(out->sim.latency, "latency", &out->problems);
    const LeafGate gate = leafGate(out->leaves, out->leafSpace);
    if (!gate.pass)
        out->problems.push_back(
            "leaf trace fails the security gate (" + std::to_string(
                gate.observations) + " leaves, chi2/threshold "
            + std::to_string(gate.chi2Ratio) + ", halves uniform "
            + std::to_string(gate.firstHalfUniform) + "/"
            + std::to_string(gate.secondHalfUniform) + ", lag-1 "
            + std::to_string(gate.lag1) + " vs bound "
            + std::to_string(gate.lag1Bound) + ")");
}

void
sessionGates(const WorkloadSpec &spec, bool stash_overflowed,
             RunOutcome *out)
{
    if (out->completed != spec.requests)
        out->problems.push_back(
            "served " + std::to_string(out->completed) + " of "
            + std::to_string(spec.requests) + " requested");
    if (stash_overflowed)
        out->problems.push_back("data stash overflowed");
    commonGates(out);
}

RunOutcome
runSessionUntraced(const WorkloadSpec &spec, const Inputs &inputs)
{
    const palermo::SystemConfig config = systemConfig(spec);
    RunOutcome out;

    const Clock::time_point t0 = Clock::now();
    palermo::SimSession session(spec.protocol, config,
                                makeFrontend(config, inputs));
    const Clock::time_point t1 = Clock::now();
    palermo::ControllerStats &stats = session.controller().stats();
    stats.recordLeafTrace = true;
    const palermo::RunMetrics metrics = session.finish();
    const Clock::time_point t2 = Clock::now();
    out.setupSeconds = seconds(t1 - t0);
    out.runSeconds = seconds(t2 - t1);

    out.offered = spec.requests;
    out.completed = metrics.served;
    SimView &sim = out.sim;
    sim.counters = {session.now(), metrics.served, metrics.dramReads,
                    metrics.dramWrites};
    sim.reqPerKilocycle = metrics.requestsPerKilocycle;
    sim.latency = summarize(latencies(metrics.samples));
    sim.stashMax = metrics.stashMax;
    sim.syncFrac = metrics.syncFraction;
    std::uint64_t busy = 0;
    for (unsigned level = 0; level < palermo::kHierLevels; ++level)
        busy += stats.dramCycles[level] + stats.syncCycles[level];
    sim.busyFrac = static_cast<double>(busy)
        / static_cast<double>(metrics.measuredCycles);
    sim.readsPerReq = metrics.readsPerRequest;
    sim.writesPerReq = metrics.writesPerRequest;
    sim.rowHitRate = metrics.rowHitRate;
    sim.bwUtil = metrics.bwUtilization;
    sim.avgOutstanding = metrics.avgOutstanding;
    sim.avgReadLatency = metrics.avgReadLatency;
    out.leaves = stats.leafTrace;
    out.leafSpace = stats.leafSpace;
    sessionGates(spec, metrics.stashOverflowed, &out);
    return out;
}

/**
 * DramSystem::tickWindow on the calling thread. The call carries a
 * worker-pool argument only while intra-session threading exists;
 * resolving the overload here keeps the benchmark compiling once it
 * is gone.
 */
template <class Dram>
void
tickWindowSerial(Dram &dram, std::uint64_t cycles)
{
    if constexpr (requires { dram.tickWindow(cycles); })
        dram.tickWindow(cycles);
    else
        dram.tickWindow(nullptr, cycles);
}

/**
 * The session's cycle loop (SimSession::finish and drain), rebuilt from
 * the layers' public calls so each call can be timed. It must leave
 * every simulated counter exactly where the session leaves it; the
 * caller checks that against an untraced run.
 */
RunOutcome
runSessionTraced(const WorkloadSpec &spec, const Inputs &inputs,
                 Spans *spans)
{
    const palermo::SystemConfig config = systemConfig(spec);
    RunOutcome out;

    LapTimer lap;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<palermo::Frontend> frontend =
        makeFrontend(config, inputs);
    lap.restart();
    std::unique_ptr<palermo::Controller> controller =
        palermo::buildProtocolController(spec.protocol, config);
    lap.lap(spans->oramBuild);
    palermo::DramSystem dram(config.dram);
    const Clock::time_point t1 = Clock::now();

    palermo::ControllerStats &stats = controller->stats();
    stats.recordLeafTrace = true;
    const auto warmup_served = static_cast<std::uint64_t>(
        config.totalRequests * config.warmupFraction);
    const std::uint64_t sample_window =
        std::max<std::uint64_t>(1, config.totalRequests / 100);
    bool measuring = warmup_served == 0;
    std::uint64_t next_sample = sample_window;
    Clock::time_point measure_start = t1;

    const auto quiescent_window = [&](std::uint64_t bound) -> std::uint64_t {
        if (bound == 0 || !controller->idle() || !dram.readQuiescent())
            return 0;
        if (stats.served >= next_sample)
            return 0;
        if (!measuring && stats.served >= warmup_served)
            return 0;
        const palermo::Tick now = dram.now();
        const palermo::Tick next = frontend->nextIssueAt(now);
        if (next <= now)
            return 0;
        if (next == palermo::Frontend::kNever)
            return bound;
        return std::min<std::uint64_t>(bound, next - now);
    };

    const auto bulk_step = [&](std::uint64_t bound) -> std::uint64_t {
        const std::uint64_t window = quiescent_window(bound);
        if (window == 0)
            return 0;
        lap.restart();
        const bool batched = controller->tickIdle(window);
        lap.lap(spans->controllerTick);
        if (!batched)
            return 0;
        tickWindowSerial(dram, window);
        lap.lap(spans->memTick);
        return window;
    };

    // Starts a lap; the caller ends it.
    const auto deliver = [&] {
        lap.restart();
        const std::vector<palermo::Completion> &completions =
            dram.drainCompletions();
        lap.lap(spans->memTick);
        if (completions.empty())
            return;
        for (const palermo::Completion &completion : completions)
            controller->onCompletion(completion.tag);
        lap.lap(spans->controllerComplete);
    };

    const auto run_cycle = [&] {
        const palermo::Tick now = dram.now();
        deliver();
        while (frontend->wantsIssue(now) && controller->canAccept()) {
            const palermo::FrontendRequest request = frontend->produce(now);
            controller->push(request.pa, request.write, request.value,
                             request.dummy);
        }
        lap.lap(spans->controllerAdmit);
        controller->tick(dram);
        lap.lap(spans->controllerTick);
        dram.tick();
        lap.lap(spans->memTick);
        if (!measuring && stats.served >= warmup_served) {
            measuring = true;
            dram.resetStats();
            stats.dramCycles = {};
            stats.syncCycles = {};
            stats.samples.clear();
            const Clock::time_point flip = Clock::now();
            spans->warmup += flip - t1;
            measure_start = flip;
        }
        if (stats.served >= next_sample) {
            next_sample += sample_window;
            controller->stashOf(palermo::kLevelData).resetWindowWatermark();
        }
    };

    bool runaway = false;
    while (stats.served < config.totalRequests) {
        if (dram.now() >= kTickLimit) {
            runaway = true;
            break;
        }
        if (bulk_step(kBulkChunk))
            continue;
        run_cycle();
    }
    const Clock::time_point drain_start = Clock::now();
    spans->measured += drain_start - measure_start;
    for (unsigned i = 0;
         i < 4 * config.dram.timing.tRC && !controller->idle(); ++i) {
        deliver();
        controller->tick(dram);
        lap.lap(spans->controllerTick);
        dram.tick();
        lap.lap(spans->memTick);
    }
    const Clock::time_point t2 = Clock::now();
    spans->drain += t2 - drain_start;
    out.setupSeconds = seconds(t1 - t0);
    out.runSeconds = seconds(t2 - t1);

    const palermo::DramSnapshot snap = dram.snapshot();
    out.offered = spec.requests;
    out.completed = stats.served;
    out.sim.counters = {dram.now(), stats.served, snap.reads, snap.writes};
    out.sim.latency = summarize(latencies(stats.samples));
    out.leaves = stats.leafTrace;
    out.leafSpace = stats.leafSpace;
    if (runaway)
        out.problems.push_back("traced loop hit the runaway guard");
    sessionGates(spec,
                 controller->stashOf(palermo::kLevelData).overflowed(),
                 &out);
    return out;
}

palermo::ServiceConfig
serviceConfig(const WorkloadSpec &spec)
{
    palermo::ServiceConfig config;
    config.protocol = spec.protocol;
    config.system = systemConfig(spec);
    config.tenants = spec.tenants;
    config.queueCapacity = spec.queueCapacity;
    config.queuePolicy = palermo::QueuePolicy::Reject;
    config.warmupCompletions = spec.warmup;
    return config;
}

/**
 * Open-loop service run: step to each arrival's due tick, offer it
 * there, then drain. kTraced times the service calls and phases; the
 * untraced instantiation reads no clock between construction and the
 * end of the drain.
 */
template <bool kTraced>
RunOutcome
runService(const WorkloadSpec &spec, const Inputs &inputs, Spans *spans)
{
    RunOutcome out;
    LapTimer lap;
    const Clock::time_point t0 = Clock::now();
    palermo::ObliviousKvService service(serviceConfig(spec));
    const Clock::time_point t1 = Clock::now();
    service.enableLeafTrace();

    // Per-request latency = completion tick - due tick, so time spent
    // queued counts. Completions after the warmup-th are measured.
    std::vector<double> measured;
    std::vector<std::vector<double>> per_tenant(spec.tenants);
    std::uint64_t ordinal = 0;
    service.setCompletionSink(
        [&](const palermo::ServiceCompletion &completion) {
            if (++ordinal <= spec.warmup)
                return;
            const auto latency = static_cast<double>(
                completion.completion - completion.arrival);
            measured.push_back(latency);
            per_tenant[completion.tenant].push_back(latency);
        });

    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t late = 0;
    bool in_warmup = spec.warmup > 0;
    Clock::time_point measure_start = t1;
    std::uint64_t value = 0;
    for (const Arrival &arrival : inputs.arrivals) {
        const palermo::Tick now = service.now();
        if (now < arrival.due) {
            if constexpr (kTraced)
                lap.restart();
            service.step(arrival.due - now);
            if constexpr (kTraced)
                lap.lap(spans->serviceStep);
        }
        if (service.now() != arrival.due)
            ++late;
        if constexpr (kTraced) {
            if (in_warmup && service.completedTotal() >= spec.warmup) {
                in_warmup = false;
                measure_start = Clock::now();
                spans->warmup += measure_start - t1;
            }
        }
        if constexpr (kTraced)
            lap.restart();
        const palermo::Admission admission = service.offer(
            arrival.tenant, arrival.key, arrival.write, value++, arrival.due);
        if constexpr (kTraced)
            lap.lap(spans->serviceOffer);
        if (admission == palermo::Admission::Accepted)
            ++accepted;
        else
            ++rejected;
    }
    if constexpr (kTraced)
        lap.restart();
    service.drainAll();
    const Clock::time_point t2 = Clock::now();
    if constexpr (kTraced) {
        lap.lap(spans->serviceDrain);
        spans->drain += spans->serviceDrain;
        spans->measured += t2 - spans->serviceDrain - measure_start;
    }
    out.setupSeconds = seconds(t1 - t0);
    out.runSeconds = seconds(t2 - t1);

    const palermo::ServiceSnapshot snapshot = service.snapshot();
    const palermo::RunMetrics metrics = service.simMetrics();
    out.offered = inputs.arrivals.size();
    out.completed = service.completedTotal();
    SimView &sim = out.sim;
    sim.counters = {service.now(), service.completedTotal(),
                    metrics.dramReads, metrics.dramWrites};
    sim.reqPerKilocycle = snapshot.achievedPerKilocycle;
    sim.latency = summarize(measured);
    sim.stashMax = metrics.stashMax;
    sim.syncFrac = metrics.syncFraction;
    sim.readsPerReq = metrics.readsPerRequest;
    sim.writesPerReq = metrics.writesPerRequest;
    sim.rowHitRate = metrics.rowHitRate;
    sim.bwUtil = metrics.bwUtilization;
    sim.avgOutstanding = metrics.avgOutstanding;
    sim.avgReadLatency = metrics.avgReadLatency;
    sim.rejected = rejected;
    sim.queueHighWatermark = snapshot.queueHighWatermark;
    for (unsigned tenant = 0; tenant < spec.tenants; ++tenant) {
        const LatencySummary summary = summarize(per_tenant[tenant]);
        checkLatency(summary, "tenant " + std::to_string(tenant) + " latency",
                     &out.problems);
        sim.tenantP99Max = tenant ? std::max(sim.tenantP99Max, summary.p99)
                                  : summary.p99;
        sim.tenantP99Min = tenant ? std::min(sim.tenantP99Min, summary.p99)
                                  : summary.p99;
    }
    out.leaves = service.leafTrace();
    out.leafSpace = service.leafSpace();

    if (accepted != service.completedTotal())
        out.problems.push_back(
            "accepted " + std::to_string(accepted) + " but completed "
            + std::to_string(service.completedTotal()) + " after drain");
    if (snapshot.global.accepted != snapshot.global.completed)
        out.problems.push_back("measured window lost requests");
    if (measured.size() != snapshot.global.completed)
        out.problems.push_back(
            "latency samples " + std::to_string(measured.size())
            + " != measured completions "
            + std::to_string(snapshot.global.completed));
    if (late != 0)
        out.problems.push_back(std::to_string(late)
                               + " arrivals offered after their due tick");
    if (metrics.stashOverflowed)
        out.problems.push_back("data stash overflowed");
    commonGates(&out);
    return out;
}

} // namespace

Inputs
makeInputs(const WorkloadSpec &spec, std::uint64_t seed)
{
    Inputs inputs;
    if (spec.driver == Driver::Session) {
        inputs.misses = uniformTrace(seed, 1ull << spec.log2Blocks,
                                     spec.requests, spec.writeFraction);
    } else {
        inputs.arrivals = openLoopArrivals(
            seed, {spec.requests, spec.ratePerKilocycle, spec.tenants,
                   spec.keysPerTenant, spec.zipfAlpha, spec.writeFraction});
    }
    return inputs;
}

RunOutcome
runUntraced(const WorkloadSpec &spec, const Inputs &inputs)
{
    return spec.driver == Driver::Session
        ? runSessionUntraced(spec, inputs)
        : runService<false>(spec, inputs, nullptr);
}

RunOutcome
runTraced(const WorkloadSpec &spec, const Inputs &inputs, Spans *spans)
{
    return spec.driver == Driver::Session
        ? runSessionTraced(spec, inputs, spans)
        : runService<true>(spec, inputs, spans);
}

} // namespace perfbench
