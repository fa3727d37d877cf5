/**
 * @file
 * Scenario CLI parsing and output rendering.
 */

#include "scenario/scenario_cli.hh"

#include <cstdio>
#include <sstream>

#include "service/service_metrics.hh"
#include "sim/metrics_json.hh"
#include "sim/run_cli.hh"

namespace palermo {

namespace {

void
writeTenantBlock(JsonWriter &w, const TenantOutcome &tenant)
{
    w.beginObject();
    w.field("name", tenant.name);
    w.field("mode", tenant.closedLoop ? "closed" : "open");
    w.field("demand_per_kilocycle", tenant.demandPerKilocycle);
    w.field("achieved_per_kilocycle", tenant.achievedPerKilocycle);
    if (tenant.isolated) {
        w.field("isolated_latency_mean", tenant.isolatedMean);
        w.field("isolated_latency_p99", tenant.isolatedP99);
        w.field("slowdown_mean", tenant.slowdownMean);
        w.field("slowdown_p99", tenant.slowdownP99);
    }
    w.key("scope");
    writeServiceScope(w, tenant.scope);
    w.endObject();
}

void
writeSecurityBlock(JsonWriter &w, const ScenarioSecurity &security)
{
    w.beginObject();
    w.field("evaluated", security.evaluated);
    w.field("leaf_observations", security.leafObservations);
    w.field("chi_square", security.chiSquare.statistic);
    w.field("chi_square_threshold", security.chiSquare.threshold);
    w.field("uniform", security.chiSquare.uniform);
    w.field("serial_correlation", security.serialCorrelation);
    w.field("serial_correlation_bound", security.correlationBound());
    w.field("mi_evaluated", security.miEvaluated);
    w.field("mutual_information_bits",
            security.mutualInformationBits);
    w.field("pass", security.pass());
    w.endObject();
}

} // namespace

bool
parseScenarioCliArgs(int argc, const char *const *argv,
                     ScenarioCliOptions *options, std::string *error)
{
    ScenarioCliOptions result;

    ArgCursor cursor(argc, argv);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        std::string value;

        if (name == "--help" || name == "-h") {
            result.help = true;
        } else if (name == "--list-protocols") {
            result.listProtocols = true;
        } else if (name == "--no-isolation") {
            result.noIsolation = true;
        } else if (name == "--no-security") {
            result.noSecurity = true;
        } else if (name == "--scenario") {
            if (!cursor.value(&value))
                return fail(error, "--scenario needs a file path");
            result.scenarioPath = value;
        } else if (name == "--json") {
            if (!cursor.value(&value))
                return fail(error, "--json needs a path (or '-')");
            result.jsonPath = value;
        } else if (!name.empty() && name.front() != '-') {
            if (!result.scenarioPath.empty())
                return fail(error,
                            "only one scenario file per invocation");
            result.scenarioPath = name;
        } else {
            return fail(error, "unknown flag '" + name + "'");
        }
    }

    *options = result;
    return true;
}

std::string
scenarioTable(const ScenarioOutcome &outcome)
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-16s%8s%12s%12s%10s%10s%12s\n", "tenant", "mode",
                  "demand/kc", "ach/kc", "lat-p50", "lat-p99",
                  "slow-p99");
    out += line;
    for (const TenantOutcome &tenant : outcome.tenants) {
        std::snprintf(line, sizeof(line),
                      "%-16s%8s%12.3f%12.3f%10.0f%10.0f%12.2f\n",
                      tenant.name.c_str(),
                      tenant.closedLoop ? "closed" : "open",
                      tenant.demandPerKilocycle,
                      tenant.achievedPerKilocycle,
                      tenant.scope.latency.quantile(0.50),
                      tenant.scope.latency.quantile(0.99),
                      tenant.isolated ? tenant.slowdownP99 : 1.0);
        out += line;
    }
    std::snprintf(line, sizeof(line),
                  "jain(achieved) %.3f  jain(slowdown-p99) %.3f\n",
                  outcome.jainAchieved, outcome.jainSlowdown);
    out += line;
    if (outcome.security.evaluated) {
        std::snprintf(
            line, sizeof(line),
            "security: %s  (chi2 %.1f/%.1f  corr %+.4f  MI %s)\n",
            outcome.security.pass() ? "PASS" : "FAIL",
            outcome.security.chiSquare.statistic,
            outcome.security.chiSquare.threshold,
            outcome.security.serialCorrelation,
            outcome.security.miEvaluated
                ? jsonNumber(outcome.security.mutualInformationBits)
                      .c_str()
                : "n/a");
        out += line;
    }
    return out;
}

std::string
scenarioDocument(const ScenarioOutcome &outcome,
                 const std::string &tool)
{
    JsonWriter w;
    w.beginObject();
    MetricsJson::writeHeader(w, tool);
    w.key("points").beginArray();
    MetricsJson::writeRecord(w, outcome.base, [&](JsonWriter &inner) {
        inner.field("mode", "scenario");
        inner.key("scenario").beginObject();
        inner.field("name", outcome.spec.name);
        inner.field("duration", outcome.spec.duration);
        inner.field("tenant_count",
                    static_cast<std::uint64_t>(
                        outcome.tenants.size()));
        inner.key("tenants").beginArray();
        for (const TenantOutcome &tenant : outcome.tenants)
            writeTenantBlock(inner, tenant);
        inner.endArray();
        inner.key("fairness").beginObject();
        inner.field("jain_achieved", outcome.jainAchieved);
        inner.field("jain_slowdown_p99", outcome.jainSlowdown);
        inner.endObject();
        inner.key("security");
        writeSecurityBlock(inner, outcome.security);
        inner.endObject();
        inner.key("service");
        writeServiceSnapshot(inner, outcome.service);
    });
    for (const IsolationRecord &record : outcome.isolationRuns) {
        MetricsJson::writeRecord(
            w, record.base, [&](JsonWriter &inner) {
                inner.field("mode", "isolation");
                inner.field("isolated_tenant", record.tenant);
                inner.key("service");
                writeServiceSnapshot(inner, record.service);
            });
    }
    w.endArray();
    double max_slowdown = 1.0;
    for (const TenantOutcome &tenant : outcome.tenants)
        if (tenant.isolated && tenant.slowdownP99 > max_slowdown)
            max_slowdown = tenant.slowdownP99;
    MetricsJson::writeDerived(
        w, {
               {"achieved_per_kilocycle",
                outcome.service.achievedPerKilocycle},
               {"jain_achieved", outcome.jainAchieved},
               {"jain_slowdown_p99", outcome.jainSlowdown},
               {"max_slowdown_p99", max_slowdown},
           });
    w.endObject();
    std::string text = w.str();
    text.push_back('\n');
    return text;
}

std::string
scenarioUsage()
{
    std::ostringstream os;
    os << "usage: palermo_scenario [options] <scenario.json>\n"
       << "\n"
       << "Run a declarative multi-tenant scenario over one shared\n"
       << "oblivious KV service: merge every tenant's arrivals in\n"
       << "simulated time, measure per-tenant latency, fairness, and\n"
       << "interference against isolation baselines, and check the\n"
       << "uniformity/mutual-information security gates on the merged\n"
       << "attacker-visible sequence.\n"
       << "\n"
       << "options:\n"
       << "  --scenario FILE     scenario JSON (or pass it "
          "positionally)\n"
       << "  --json PATH         palermo-metrics-v1 output "
          "('-' = stdout)\n"
       << "  --no-isolation      skip the per-tenant isolation "
          "baselines\n"
       << "  --no-security       skip the merged-trace security "
          "gates\n"
       << "  --list-protocols    print the protocol registry and "
          "exit\n"
       << "  --help              this text\n"
       << "\n"
       << "example:\n"
       << "  palermo_scenario tools/scenarios/bursty-neighbor.json \\\n"
       << "      --json out.json\n";
    return os.str();
}

} // namespace palermo
