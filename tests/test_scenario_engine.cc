/**
 * @file Scenario engine tests: accounting invariants of a shared
 * multi-tenant run (per-tenant sums match globals, accepted ==
 * completed after drain), byte-identity of the rendered document
 * across repeat runs, isolation baselines, closed-loop
 * concurrency limits, trace-backed tenants (via the checked-in
 * tiny.trace), the arrival budget, and the palermo_loadgen point to
 * scenario mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenario/engine.hh"
#include "scenario/scenario.hh"
#include "scenario/scenario_cli.hh"
#include "service/loadgen.hh"
#include "sim/metrics_json.hh"

namespace palermo {
namespace {

/** Small two-tenant scenario that runs in well under a second. */
ScenarioSpec
smallSpec()
{
    ScenarioSpec spec;
    spec.name = "unit";
    spec.blocks = 16384;
    spec.seed = 21;
    spec.duration = 30000;
    spec.warmupCompletions = 16;

    TenantSpec open;
    open.name = "open";
    open.rate = 0.7;
    open.dist = KeyDist::Zipf;
    open.writeFraction = 0.25;
    spec.tenants.push_back(open);

    TenantSpec closed;
    closed.name = "closed";
    closed.closedLoop = true;
    closed.concurrency = 3;
    closed.dist = KeyDist::Uniform;
    spec.tenants.push_back(closed);
    return spec;
}

ScenarioRunOptions
fastOptions()
{
    ScenarioRunOptions options;
    options.isolation = false;
    options.security = false;
    return options;
}

TEST(ScenarioEngineTest, AccountingInvariantsHold)
{
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(smallSpec(), fastOptions(), &outcome,
                            &error))
        << error;

    ASSERT_EQ(outcome.tenants.size(), 2u);
    EXPECT_GT(outcome.service.global.completed, 0u);
    EXPECT_EQ(outcome.service.global.accepted,
              outcome.service.global.completed);

    std::uint64_t sum = 0;
    for (const TenantOutcome &tenant : outcome.tenants) {
        EXPECT_EQ(tenant.scope.accepted, tenant.scope.completed)
            << tenant.name;
        EXPECT_GT(tenant.scope.completed, 0u) << tenant.name;
        sum += tenant.scope.completed;
    }
    EXPECT_EQ(sum, outcome.service.global.completed);

    std::vector<std::string> problems;
    EXPECT_TRUE(scenarioSanityCheck(outcome, &problems))
        << (problems.empty() ? "" : problems.front());
}

TEST(ScenarioEngineTest, RepeatRunsAreByteIdentical)
{
    const ScenarioSpec spec = smallSpec();
    ScenarioOutcome a, b;
    std::string error;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &a, &error)) << error;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &b, &error)) << error;
    EXPECT_EQ(scenarioDocument(a, "unit"), scenarioDocument(b, "unit"));
}

TEST(ScenarioEngineTest, IsolationBaselinesMeasureSlowdown)
{
    ScenarioRunOptions options;
    options.security = false;
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(smallSpec(), options, &outcome, &error))
        << error;

    ASSERT_EQ(outcome.isolationRuns.size(), 2u);
    for (const TenantOutcome &tenant : outcome.tenants) {
        EXPECT_TRUE(tenant.isolated) << tenant.name;
        EXPECT_GT(tenant.isolatedMean, 0.0) << tenant.name;
        EXPECT_GT(tenant.slowdownMean, 0.0) << tenant.name;
        EXPECT_GT(tenant.slowdownP99, 0.0) << tenant.name;
    }
    EXPECT_GT(outcome.jainAchieved, 0.0);
    EXPECT_LE(outcome.jainAchieved, 1.0 + 1e-12);
    EXPECT_GT(outcome.jainSlowdown, 0.0);
}

TEST(ScenarioEngineTest, SeedChangesTheRun)
{
    ScenarioSpec spec = smallSpec();
    ScenarioOutcome a;
    std::string error;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &a, &error)) << error;
    spec.seed = 22;
    ScenarioOutcome b;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &b, &error)) << error;
    EXPECT_NE(scenarioDocument(a, "unit"), scenarioDocument(b, "unit"));
}

TEST(ScenarioEngineTest, TraceTenantReplaysRecordedKeys)
{
    ScenarioSpec spec = smallSpec();
    TenantSpec replay;
    replay.name = "replay";
    replay.source = SourceKind::Trace;
    replay.resolvedTracePath =
        std::string(PALERMO_SOURCE_DIR) + "/tools/traces/tiny.trace";
    replay.rate = 0.5;
    replay.dist = KeyDist::Zipf; // Ignored for traces.
    spec.tenants.push_back(replay);

    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(spec, fastOptions(), &outcome, &error))
        << error;
    ASSERT_EQ(outcome.tenants.size(), 3u);
    EXPECT_GT(outcome.tenants[2].scope.completed, 0u);

    std::vector<std::string> problems;
    EXPECT_TRUE(scenarioSanityCheck(outcome, &problems))
        << (problems.empty() ? "" : problems.front());
}

TEST(ScenarioEngineTest, MissingTraceFileFailsCleanly)
{
    ScenarioSpec spec = smallSpec();
    TenantSpec replay;
    replay.name = "replay";
    replay.source = SourceKind::Trace;
    replay.resolvedTracePath = "/nonexistent/void.trace";
    spec.tenants.push_back(replay);

    ScenarioOutcome outcome;
    std::string error;
    EXPECT_FALSE(runScenario(spec, fastOptions(), &outcome, &error));
    EXPECT_FALSE(error.empty());
}

TEST(ScenarioEngineTest, ZeroBudgetLeavesTheDocumentUnchanged)
{
    EXPECT_EQ(ScenarioRunOptions{}.arrivalBudget, 0u);
    ScenarioRunOptions budgeted;
    budgeted.arrivalBudget = 0;
    const ScenarioSpec spec = smallSpec();
    ScenarioOutcome a, b;
    std::string error;
    ASSERT_TRUE(runScenario(spec, ScenarioRunOptions{}, &a, &error))
        << error;
    ASSERT_TRUE(runScenario(spec, budgeted, &b, &error)) << error;
    EXPECT_EQ(scenarioDocument(a, "unit"), scenarioDocument(b, "unit"));
}

/** Open tenant with fixed pacing: arrivals at k * 1000 / rate. */
TenantSpec
fixedTenant(const std::string &name, double rate)
{
    TenantSpec tenant;
    tenant.name = name;
    tenant.process = ArrivalProcess::Fixed;
    tenant.rate = rate;
    tenant.dist = KeyDist::Uniform;
    return tenant;
}

TEST(ScenarioEngineTest, OpenBudgetTakesThePrefixOfTheMergedSchedule)
{
    // "a" arrives every 1000 cycles and "b" every 2000, so every
    // arrival of "b" ties with one of "a"; the merged schedule puts
    // "a" first at each tie.
    ScenarioSpec spec = smallSpec();
    spec.duration = 400000;
    spec.warmupCompletions = 0;
    spec.queueCapacity = 256;
    spec.tenants = {fixedTenant("a", 1.0), fixedTenant("b", 0.5)};

    struct Due
    {
        Tick due;
        std::size_t tenant;
    };
    std::vector<Due> schedule;
    for (Tick t = 1000; t < spec.duration; t += 1000)
        schedule.push_back({t, 0});
    for (Tick t = 2000; t < spec.duration; t += 2000)
        schedule.push_back({t, 1});
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Due &x, const Due &y) {
                         return x.due < y.due;
                     });

    // 5 cuts between the two arrivals due at tick 4000; 6 after them.
    for (std::uint64_t budget : {5u, 6u, 31u}) {
        std::uint64_t expected[2] = {0, 0};
        for (std::size_t i = 0; i < budget; ++i)
            ++expected[schedule[i].tenant];

        ScenarioRunOptions options = fastOptions();
        options.arrivalBudget = budget;
        ScenarioOutcome outcome;
        std::string error;
        ASSERT_TRUE(runScenario(spec, options, &outcome, &error))
            << error;
        EXPECT_EQ(outcome.service.global.offered, budget);
        EXPECT_EQ(outcome.service.global.rejected, 0u);
        EXPECT_EQ(outcome.tenants[0].scope.offered, expected[0])
            << "budget " << budget;
        EXPECT_EQ(outcome.tenants[1].scope.offered, expected[1])
            << "budget " << budget;
    }
}

TEST(ScenarioEngineTest, ClosedBudgetStopsIssuing)
{
    ScenarioSpec spec = smallSpec();
    spec.duration = 200000; // Unbudgeted, this issues hundreds.
    spec.warmupCompletions = 0;
    spec.tenants[0].closedLoop = true;
    spec.tenants[0].concurrency = 2;

    // A range of budgets, so that some runs spend the last unit while
    // several completions land in one step.
    for (std::uint64_t budget = 40; budget <= 60; ++budget) {
        ScenarioRunOptions options = fastOptions();
        options.arrivalBudget = budget;
        ScenarioOutcome outcome;
        std::string error;
        ASSERT_TRUE(runScenario(spec, options, &outcome, &error))
            << error;
        const ServiceScopeSnapshot &global = outcome.service.global;
        EXPECT_EQ(global.offered, budget);
        EXPECT_EQ(global.accepted, budget);
        EXPECT_EQ(global.completed, budget);
        EXPECT_EQ(outcome.base.point.config.totalRequests, budget);
        // The run ends once the budget drains, long before the
        // duration.
        EXPECT_LT(outcome.service.measuredCycles, spec.duration / 2);

        std::vector<std::string> problems;
        EXPECT_TRUE(scenarioSanityCheck(outcome, &problems))
            << (problems.empty() ? "" : problems.front());
    }
}

std::string
renderSnapshot(const ServiceSnapshot &snapshot)
{
    JsonWriter w;
    writeServiceSnapshot(w, snapshot);
    return w.str();
}

TEST(ScenarioEngineTest, LoadgenPointRunsItsHandWrittenScenario)
{
    LoadgenOptions options;
    options.blocks = 1 << 12;
    options.seedSet = true;
    options.seed = 5;
    options.tenants = 3;
    options.requests = 80;
    options.warmupFraction = 0.25;
    options.dist = KeyDist::Uniform;
    options.writeFraction = 0.2;
    options.queueCapacity = 16;
    options.sessionDepth = 6;

    const auto handWritten = [&](std::vector<unsigned> concurrency,
                                 double rate) {
        ScenarioSpec spec;
        spec.name = "by-hand";
        spec.blocks = 1 << 12;
        spec.seed = 5;
        spec.duration = kTickNever;
        spec.warmupCompletions = 20;
        spec.queueCapacity = 16;
        spec.sessionDepth = 6;
        for (std::size_t i = 0; i < 3; ++i) {
            TenantSpec tenant;
            tenant.name = "tenant" + std::to_string(i);
            tenant.closedLoop = !concurrency.empty();
            tenant.concurrency = tenant.closedLoop ? concurrency[i] : 0;
            tenant.rate = rate;
            tenant.dist = KeyDist::Uniform;
            tenant.writeFraction = 0.2;
            spec.tenants.push_back(tenant);
        }
        ScenarioRunOptions run = fastOptions();
        run.arrivalBudget = 100;
        ScenarioOutcome outcome;
        std::string error;
        EXPECT_TRUE(runScenario(spec, run, &outcome, &error)) << error;
        return renderSnapshot(outcome.service);
    };

    LoadPointSpec closed;
    closed.closedLoop = true;
    closed.concurrency = 4; // 4 over 3 tenants: 2, 1, 1.
    EXPECT_EQ(renderSnapshot(runLoadPoint(options, closed).service),
              handWritten({2, 1, 1}, 1.0));

    closed.concurrency = 2; // The third tenant's share is 0.
    EXPECT_EQ(renderSnapshot(runLoadPoint(options, closed).service),
              handWritten({1, 1, 0}, 1.0));

    LoadPointSpec open;
    open.rate = 1.5; // 0.5 per tenant.
    EXPECT_EQ(renderSnapshot(runLoadPoint(options, open).service),
              handWritten({}, 0.5));
}

TEST(ScenarioEngineTest, SanityGateCatchesEachAccountingBreak)
{
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(smallSpec(), fastOptions(), &outcome,
                            &error))
        << error;

    // A request lost inside one tenant's scope, and one lost only in
    // the global scope: each fails the gate on its own.
    ScenarioOutcome tenantLost = outcome;
    tenantLost.tenants[0].scope.accepted += 1;
    EXPECT_FALSE(scenarioSanityCheck(tenantLost, nullptr));

    ScenarioOutcome globalLost = outcome;
    globalLost.service.global.accepted += 1;
    std::vector<std::string> problems;
    EXPECT_FALSE(scenarioSanityCheck(globalLost, &problems));
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("lost requests"), std::string::npos);
}

} // namespace
} // namespace palermo
