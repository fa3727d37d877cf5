/**
 * @file
 * Load-generator option parsing, point expansion, the open/closed-loop
 * drivers, and the sweep document renderer.
 */

#include "service/loadgen.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <deque>
#include <sstream>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/run_cli.hh"

namespace palermo {

namespace {

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Strict finite double parse (whole string, no whitespace). */
bool
parseDoubleStrict(const std::string &text, double *value)
{
    if (text.empty())
        return false;
    const char *begin = text.data();
    const char *end = begin + text.size();
    double parsed = 0.0;
    const auto result = std::from_chars(begin, end, parsed);
    if (result.ec != std::errc() || result.ptr != end
        || !std::isfinite(parsed))
        return false;
    *value = parsed;
    return true;
}

/** Split "a,b,c" on commas (no empty fields allowed). */
bool
splitList(const std::string &text, std::vector<std::string> *fields)
{
    std::string field;
    std::stringstream stream(text);
    while (std::getline(stream, field, ',')) {
        if (field.empty())
            return false;
        fields->push_back(field);
    }
    return !fields->empty() && text.back() != ',';
}

} // namespace

bool
parseLoadgenArgs(int argc, const char *const *argv,
                 LoadgenOptions *options, std::string *error)
{
    LoadgenOptions result;

    ArgCursor cursor(argc, argv);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        std::string value;

        if (name == "--help" || name == "-h") {
            result.help = true;
        } else if (name == "--list-protocols") {
            result.listProtocols = true;
        } else if (name == "--paper") {
            result.paperGeometry = true;
        } else if (name == "--progress") {
            result.progress = true;
        } else if (name == "--protocol") {
            if (!cursor.value(&value))
                return fail(error, "--protocol needs a name");
            if (!protocolFromName(value, &result.protocol))
                return fail(error, "unknown protocol '" + value + "'");
        } else if (name == "--blocks") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.blocks)
                || result.blocks == 0)
                return fail(error, "--blocks needs a positive integer");
        } else if (name == "--seed") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.seed))
                return fail(error, "--seed needs an unsigned integer");
            result.seedSet = true;
        } else if (name == "--openloop") {
            std::vector<std::string> fields;
            if (!cursor.value(&value) || !splitList(value, &fields))
                return fail(error,
                            "--openloop needs rate[,rate...] "
                            "(req/kilocycle)");
            for (const std::string &field : fields) {
                double rate = 0.0;
                if (!parseDoubleStrict(field, &rate) || rate <= 0.0)
                    return fail(error, "--openloop rate '" + field
                                           + "' must be > 0");
                result.openloopRates.push_back(rate);
            }
        } else if (name == "--closedloop") {
            std::vector<std::string> fields;
            if (!cursor.value(&value) || !splitList(value, &fields))
                return fail(error,
                            "--closedloop needs N[,N...] outstanding "
                            "requests");
            for (const std::string &field : fields) {
                std::uint64_t concurrency = 0;
                if (!parseUnsigned(field, &concurrency)
                    || concurrency == 0)
                    return fail(error, "--closedloop count '" + field
                                           + "' must be > 0");
                result.closedloopConcurrency.push_back(
                    static_cast<unsigned>(concurrency));
            }
        } else if (name == "--arrival") {
            if (!cursor.value(&value))
                return fail(error, "--arrival needs poisson|fixed");
            if (value == "poisson")
                result.arrival = ArrivalProcess::Poisson;
            else if (value == "fixed")
                result.arrival = ArrivalProcess::Fixed;
            else
                return fail(error,
                            "unknown arrival process '" + value + "'");
        } else if (name == "--dist") {
            if (!cursor.value(&value))
                return fail(error, "--dist needs zipf|uniform");
            if (value == "zipf")
                result.dist = KeyDist::Zipf;
            else if (value == "uniform")
                result.dist = KeyDist::Uniform;
            else
                return fail(error,
                            "unknown key distribution '" + value + "'");
        } else if (name == "--zipf-alpha") {
            if (!cursor.value(&value)
                || !parseDoubleStrict(value, &result.zipfAlpha)
                || result.zipfAlpha < 0.0)
                return fail(error, "--zipf-alpha needs a number >= 0");
        } else if (name == "--write-frac") {
            if (!cursor.value(&value)
                || !parseDoubleStrict(value, &result.writeFraction)
                || result.writeFraction < 0.0
                || result.writeFraction > 1.0)
                return fail(error, "--write-frac needs 0 <= F <= 1");
        } else if (name == "--tenants") {
            std::uint64_t tenants = 0;
            if (!cursor.value(&value)
                || !parseUnsigned(value, &tenants) || tenants == 0)
                return fail(error,
                            "--tenants needs a positive integer");
            result.tenants = static_cast<unsigned>(tenants);
        } else if (name == "--requests") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.requests)
                || result.requests == 0)
                return fail(error,
                            "--requests needs a positive integer");
        } else if (name == "--warmup") {
            if (!cursor.value(&value)
                || !parseDoubleStrict(value, &result.warmupFraction)
                || result.warmupFraction < 0.0)
                return fail(error,
                            "--warmup needs a fraction >= 0 of "
                            "--requests");
        } else if (name == "--duration") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.duration)
                || result.duration == 0)
                return fail(error,
                            "--duration needs a positive cycle count");
        } else if (name == "--queue-capacity") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.queueCapacity)
                || result.queueCapacity == 0)
                return fail(error,
                            "--queue-capacity needs a positive integer");
        } else if (name == "--queue-policy") {
            if (!cursor.value(&value)
                || !queuePolicyFromName(value, &result.queuePolicy))
                return fail(error, "--queue-policy needs reject|block");
        } else if (name == "--depth") {
            if (!cursor.value(&value)
                || !parseUnsigned(value, &result.sessionDepth)
                || result.sessionDepth == 0)
                return fail(error, "--depth needs a positive integer");
        } else if (name == "--json") {
            if (!cursor.value(&value))
                return fail(error, "--json needs a path (or '-')");
            result.jsonPath = value;
        } else {
            return fail(error, "unknown flag '" + name + "'");
        }
    }

    *options = result;
    return true;
}

SystemConfig
LoadgenOptions::baseConfig() const
{
    SystemConfig config = paperGeometry ? SystemConfig::paperTableIII()
                                        : SystemConfig::benchDefault();
    if (blocks)
        config.protocol.numBlocks = blocks;
    if (seedSet) {
        config.seed = seed;
        config.protocol.seed = seed;
    }
    return config;
}

std::vector<LoadPointSpec>
expandLoadPoints(const LoadgenOptions &options)
{
    std::vector<LoadPointSpec> points;
    for (double rate : options.openloopRates) {
        LoadPointSpec spec;
        spec.index = points.size();
        spec.closedLoop = false;
        spec.rate = rate;
        points.push_back(spec);
    }
    for (unsigned concurrency : options.closedloopConcurrency) {
        LoadPointSpec spec;
        spec.index = points.size();
        spec.closedLoop = true;
        spec.concurrency = concurrency;
        points.push_back(spec);
    }
    if (points.empty()) {
        // No mode given: a small closed-loop probe beats an error.
        LoadPointSpec spec;
        spec.closedLoop = true;
        spec.concurrency = 4;
        points.push_back(spec);
    }
    return points;
}

namespace {

/** Bind the shared key sampler to a load point's options and seed. */
TenantKeySampler
keySourceFor(const LoadgenOptions &options, std::uint64_t slice_size,
             std::uint64_t point_seed)
{
    return TenantKeySampler(options.dist, options.zipfAlpha,
                            options.tenants, slice_size, point_seed);
}

/** One not-yet-accepted arrival held at the client (Block policy). */
struct PendingArrival
{
    unsigned tenant;
    std::uint64_t key;
    bool write;
    std::uint64_t value;
    Tick arrival;
};

ServiceConfig
serviceConfigFor(const LoadgenOptions &options,
                 const LoadPointSpec &spec, std::uint64_t warmup,
                 std::uint64_t planned)
{
    ServiceConfig config;
    config.protocol = options.protocol;
    config.system = options.baseConfig();
    config.system.totalRequests = planned;
    config.system.warmupFraction = planned
        ? static_cast<double>(warmup) / static_cast<double>(planned)
        : 0.0;
    config.tenants = options.tenants;
    config.queueCapacity = options.queueCapacity;
    if (spec.closedLoop)
        // A queue smaller than the concurrency would silently shed
        // clients on the initial burst; closed loop never rejects.
        config.queueCapacity = std::max<std::size_t>(
            config.queueCapacity, spec.concurrency);
    config.queuePolicy = options.queuePolicy;
    config.sessionDepth = options.sessionDepth;
    config.warmupCompletions = warmup;
    return config;
}

std::string
pointId(const LoadgenOptions &options, const LoadPointSpec &spec)
{
    std::string id = protocolShortName(options.protocol);
    if (spec.closedLoop) {
        id += "/closed/conc=" + std::to_string(spec.concurrency);
    } else {
        id += std::string("/open-")
            + arrivalProcessName(options.arrival)
            + "/rate=" + jsonNumber(spec.rate);
    }
    return id;
}

std::string
workloadLabelFor(const LoadgenOptions &options)
{
    std::string label = "svc:";
    label += options.dist == KeyDist::Zipf
        ? "zipf" + jsonNumber(options.zipfAlpha)
        : "uniform";
    label += ":" + std::to_string(options.tenants) + "t";
    return label;
}

ServiceRunRecord
condenseRecord(const LoadgenOptions &options, const LoadPointSpec &spec,
               ObliviousKvService &service)
{
    ServiceRunRecord record;
    record.spec = spec;
    record.base.point.index = spec.index;
    record.base.point.kind = options.protocol;
    record.base.point.workload = Workload::Redis; // Label overrides.
    record.base.point.workloadLabel = workloadLabelFor(options);
    record.base.point.config = service.config().system;
    record.base.point.id = pointId(options, spec);
    record.base.metrics = service.simMetrics();
    record.service = service.snapshot();
    return record;
}

ServiceRunRecord
runOpenLoop(const LoadgenOptions &options, const LoadPointSpec &spec)
{
    const auto warmup = static_cast<std::uint64_t>(
        static_cast<double>(options.requests) * options.warmupFraction);
    std::uint64_t planned = warmup + options.requests;
    ObliviousKvService service(
        serviceConfigFor(options, spec, warmup, planned));

    const std::uint64_t point_seed =
        mix64(service.config().system.seed ^ (0x6f70656eull + spec.index));
    Rng rng(mix64(point_seed ^ 0x617272697665ull));
    TenantKeySampler keys =
        keySourceFor(options, service.tenants().sliceSize(), point_seed);

    const double mean_gap = 1000.0 / spec.rate;
    // Exact arrival instants accumulate in double so fixed-interval
    // sweeps do not drift; ticks are the floor of the exact instant.
    double next_exact = arrivalGap(options.arrival, mean_gap, rng);

    std::uint64_t generated = 0;
    std::deque<PendingArrival> blocked;
    while (generated < planned || !blocked.empty()) {
        if (!blocked.empty()) {
            // Head-of-line arrival waiting out backpressure: retry
            // every cycle; its latency clock started at its arrival.
            const PendingArrival &head = blocked.front();
            if (service.offer(head.tenant, head.key, head.write,
                              head.value, head.arrival)
                != Admission::WouldBlock)
                blocked.pop_front();
            else
                service.step(1);
            continue;
        }
        if (generated >= planned)
            break;
        const auto due = static_cast<Tick>(next_exact);
        if (options.duration && due >= options.duration) {
            planned = generated; // Duration cap: stop generating.
            continue;
        }
        const Tick now = service.now();
        if (now < due) {
            service.step(due - now);
            continue;
        }
        PendingArrival arrival;
        arrival.tenant = static_cast<unsigned>(
            rng.range(options.tenants));
        arrival.key = keys.draw(arrival.tenant);
        arrival.write = rng.chance(options.writeFraction);
        arrival.value = generated;
        arrival.arrival = due;
        if (service.offer(arrival.tenant, arrival.key, arrival.write,
                          arrival.value, arrival.arrival)
            == Admission::WouldBlock)
            blocked.push_back(arrival);
        ++generated;
        next_exact += arrivalGap(options.arrival, mean_gap, rng);
    }
    service.drainAll();
    return condenseRecord(options, spec, service);
}

ServiceRunRecord
runClosedLoop(const LoadgenOptions &options, const LoadPointSpec &spec)
{
    const auto warmup = static_cast<std::uint64_t>(
        static_cast<double>(options.requests) * options.warmupFraction);
    const std::uint64_t target = warmup + options.requests;
    ObliviousKvService service(
        serviceConfigFor(options, spec, warmup, target));

    const std::uint64_t point_seed = mix64(
        service.config().system.seed ^ (0x636c6f736564ull + spec.index));
    Rng rng(mix64(point_seed ^ 0x617272697665ull));
    TenantKeySampler keys =
        keySourceFor(options, service.tenants().sliceSize(), point_seed);

    std::uint64_t issued = 0;
    const auto issue = [&](Tick arrival) {
        const auto tenant =
            static_cast<unsigned>(rng.range(options.tenants));
        const Admission admission = service.offer(
            tenant, keys.draw(tenant),
            rng.chance(options.writeFraction), issued, arrival);
        palermo_assert(admission == Admission::Accepted,
                       "closed loop must never see backpressure");
        ++issued;
    };

    // Think time zero: keep `concurrency` requests in the system until
    // the completion target is met, then let the tail drain.
    const std::uint64_t initial =
        std::min<std::uint64_t>(spec.concurrency, target);
    while (issued < initial)
        issue(0);
    while (service.completedTotal() < target) {
        const std::uint64_t done = service.step(1);
        for (std::uint64_t i = 0; i < done && issued < target; ++i)
            issue(service.now());
    }
    service.drainAll();
    return condenseRecord(options, spec, service);
}

} // namespace

ServiceRunRecord
runLoadPoint(const LoadgenOptions &options, const LoadPointSpec &spec)
{
    return spec.closedLoop ? runClosedLoop(options, spec)
                           : runOpenLoop(options, spec);
}

std::string
loadgenDocument(const std::vector<ServiceRunRecord> &records)
{
    JsonWriter w;
    w.beginObject();
    MetricsJson::writeHeader(w, "palermo_loadgen");
    w.key("points").beginArray();
    for (const ServiceRunRecord &record : records) {
        MetricsJson::writeRecord(w, record.base, [&](JsonWriter &inner) {
            inner.field("mode",
                        record.spec.closedLoop ? "closed" : "open");
            if (record.spec.closedLoop) {
                inner.field("concurrency", record.spec.concurrency);
            } else {
                inner.field("target_rate_per_kilocycle",
                            record.spec.rate);
            }
            inner.key("service");
            writeServiceSnapshot(inner, record.service);
        });
    }
    w.endArray();
    double max_achieved = 0.0;
    for (const ServiceRunRecord &record : records)
        max_achieved = std::max(max_achieved,
                                record.service.achievedPerKilocycle);
    MetricsJson::writeDerived(
        w, {{"max_achieved_per_kilocycle", max_achieved}});
    w.endObject();
    std::string text = w.str();
    text.push_back('\n');
    return text;
}

bool
serviceSanityCheck(const std::vector<ServiceRunRecord> &records,
                   std::vector<std::string> *problems)
{
    bool clean = true;
    const auto report = [&](const std::string &message) {
        clean = false;
        if (problems)
            problems->push_back(message);
    };
    for (const ServiceRunRecord &record : records) {
        const std::string &id = record.base.point.id;
        const ServiceScopeSnapshot &global = record.service.global;
        if (record.base.metrics.stashOverflowed
            && !record.base.point.allowStashOverflow)
            report(id + ": stash overflowed");
        if (global.completed == 0)
            report(id + ": no responses completed");
        if (!std::isfinite(record.service.achievedPerKilocycle)
            || record.service.achievedPerKilocycle <= 0.0)
            report(id + ": degenerate achieved rate");
        if (global.latency.quantile(0.99)
            < global.latency.quantile(0.50))
            report(id + ": latency quantiles out of order");
        if (global.accepted != global.completed)
            report(id + ": " + std::to_string(global.accepted)
                   + " accepted but " + std::to_string(global.completed)
                   + " completed (lost requests)");
    }
    return clean;
}

std::string
loadgenUsage()
{
    std::ostringstream os;
    os << "usage: palermo_loadgen [options]\n"
       << "\n"
       << "Drive the oblivious KV service with open-loop or "
          "closed-loop load\n"
       << "and emit one palermo-metrics-v1 record per design point.\n"
       << "\n"
       << "load shape:\n"
       << "  --openloop R[,R..]  open-loop target rates "
          "(req/kilocycle);\n"
       << "                      one sweep point per rate\n"
       << "  --closedloop N[,N..] closed-loop outstanding requests;\n"
       << "                      one sweep point per count "
          "(default: 4)\n"
       << "  --arrival NAME      poisson|fixed inter-arrival gaps\n"
       << "                      (open loop; default: poisson)\n"
       << "  --requests N        measured completions per point "
          "(default: 2000)\n"
       << "  --warmup F          extra warmup requests as a fraction "
          "of\n"
       << "                      --requests (default: 0.5)\n"
       << "  --duration N        stop generating open-loop arrivals "
          "after\n"
       << "                      N cycles (accepted work still "
          "drains)\n"
       << "\n"
       << "keys and tenants:\n"
       << "  --tenants N         disjoint namespaces over the block "
          "space\n"
       << "                      (default: 1)\n"
       << "  --dist NAME         zipf|uniform key popularity "
          "(default: zipf)\n"
       << "  --zipf-alpha A      Zipf skew (default: 0.99)\n"
       << "  --write-frac F      PUT probability per request "
          "(default: 0)\n"
       << "\n"
       << "service:\n"
       << "  --queue-capacity N  bounded request queue size "
          "(default: 64)\n"
       << "  --queue-policy P    reject|block on a full queue "
          "(default:\n"
       << "                      reject; closed loop clamps capacity "
          ">= N)\n"
       << "  --depth N           requests queued ahead of the "
          "controller\n"
       << "                      (default: 8)\n"
       << "\n"
       << "simulator:\n"
       << "  --protocol NAME     ORAM design (default: palermo)\n"
       << "  --blocks N          protected 64B lines (default: 2^18)\n"
       << "  --paper             Table III 16 GB geometry\n"
       << "  --seed N            determinism seed (default: 1)\n"
       << "\n"
       << "output:\n"
       << "  --json PATH         palermo-metrics-v1 JSON "
          "('-' = stdout)\n"
       << "  --progress          per-point wall-clock req/s on "
          "stderr\n"
       << "  --list-protocols    print the protocol registry and "
          "exit\n"
       << "  --help              this text\n"
       << "\n"
       << "example (saturation curve):\n"
       << "  palermo_loadgen --openloop 0.5,1,2,4,8 --tenants 4 \\\n"
       << "      --requests 4000 --json curve.json\n";
    return os.str();
}

} // namespace palermo
