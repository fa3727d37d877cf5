/**
 * @file
 * Load-generator option parsing, point expansion, the load-point to
 * scenario mapping, and the sweep document renderer.
 */

#include "service/loadgen.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/log.hh"
#include "scenario/engine.hh"
#include "sim/run_cli.hh"

namespace palermo {

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
            if (!arrivalProcessFromName(value, &result.arrival))
                return fail(error,
                            "unknown arrival process '" + value + "'");
        } else if (name == "--dist") {
            if (!cursor.value(&value))
                return fail(error, "--dist needs zipf|uniform");
            if (!keyDistFromName(value, &result.dist))
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

/**
 * The scenario a load point runs: `options.tenants` identical synthetic
 * tenants. Open loop gives each R/T; closed loop splits N as evenly as
 * possible (the first N mod T tenants hold one more; a share of 0
 * keeps the tenant, and the slice geometry, but issues nothing).
 */
ScenarioSpec
scenarioFor(const LoadgenOptions &options, const LoadPointSpec &point,
            std::uint64_t warmup)
{
    ScenarioSpec spec;
    spec.name = "loadgen";
    spec.protocol = options.protocol;
    spec.blocks = options.blocks;
    spec.seed = options.seedSet ? options.seed
                                : SystemConfig::benchDefault().seed;
    spec.duration = options.duration ? options.duration : kTickNever;
    spec.warmupCompletions = warmup;
    spec.queueCapacity = options.queueCapacity;
    spec.queuePolicy = options.queuePolicy;
    spec.sessionDepth = options.sessionDepth;
    for (unsigned i = 0; i < options.tenants; ++i) {
        TenantSpec tenant;
        tenant.name = "t" + std::to_string(i);
        tenant.closedLoop = point.closedLoop;
        tenant.process = options.arrival;
        tenant.rate = point.rate / options.tenants;
        tenant.concurrency = point.concurrency / options.tenants
            + (i < point.concurrency % options.tenants ? 1 : 0);
        tenant.dist = options.dist;
        tenant.zipfAlpha = options.zipfAlpha;
        tenant.writeFraction = options.writeFraction;
        spec.tenants.push_back(tenant);
    }
    return spec;
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

} // namespace

ServiceRunRecord
runLoadPoint(const LoadgenOptions &options, const LoadPointSpec &spec)
{
    const auto warmup = static_cast<std::uint64_t>(
        static_cast<double>(options.requests) * options.warmupFraction);
    ScenarioRunOptions run;
    run.isolation = false;
    run.security = false;
    run.arrivalBudget = warmup + options.requests;

    ScenarioOutcome outcome;
    std::string error;
    const bool ran = runScenario(scenarioFor(options, spec, warmup), run,
                                 &outcome, &error);
    palermo_assert(ran, "synthetic tenants read no trace file");

    ServiceRunRecord record;
    record.spec = spec;
    record.base = std::move(outcome.base);
    record.base.point.index = spec.index;
    record.base.point.workloadLabel = workloadLabelFor(options);
    record.base.point.id = pointId(options, spec);
    record.service = std::move(outcome.service);
    return record;
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
    for (const ServiceRunRecord &record : records) {
        ScenarioOutcome outcome;
        outcome.base = record.base;
        outcome.service = record.service;
        for (std::size_t i = 0; i < record.service.perTenant.size(); ++i) {
            TenantOutcome tenant;
            tenant.name = "t" + std::to_string(i);
            tenant.scope = record.service.perTenant[i];
            outcome.tenants.push_back(std::move(tenant));
        }
        if (!scenarioSanityCheck(outcome, problems))
            clean = false;

        const double achieved = record.service.achievedPerKilocycle;
        if (!std::isfinite(achieved) || achieved <= 0.0) {
            clean = false;
            if (problems)
                problems->push_back(record.base.point.id
                                    + ": degenerate achieved rate");
        }
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
       << "  --requests N        measured arrivals per point "
          "(default: 2000)\n"
       << "  --warmup F          extra warmup requests as a fraction "
          "of\n"
       << "                      --requests (default: 0.5)\n"
       << "  --duration N        stop generating arrivals after N "
          "cycles\n"
       << "                      (accepted work still drains)\n"
       << "\n"
       << "keys and tenants:\n"
       << "  --tenants T         identical tenants on disjoint key "
          "slices, each\n"
       << "                      with its own streams: open loop runs "
          "each at\n"
       << "                      R/T, closed loop splits N over them "
          "(default: 1)\n"
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
