/**
 * @file Cross-tenant interference security tests: the merged
 * attacker-visible leaf sequence of a multi-tenant scenario must look
 * like fresh uniform draws regardless of which tenant produced each
 * access — chi-square uniformity and bounded lag-1 correlation for
 * both the Palermo and Path ORAM protocols, plus the Equation-1
 * mutual-information gate when enough samples accumulate.
 */

#include <gtest/gtest.h>

#include <string>

#include "scenario/engine.hh"
#include "scenario/scenario.hh"

namespace palermo {
namespace {

/**
 * An adversarial pairing: a skewed bursty writer sharing the service
 * with a uniform point-lookup reader. If tenant identity or key skew
 * leaked into the remapped leaf sequence, this is where it would show.
 */
ScenarioSpec
adversarialSpec(ProtocolKind protocol)
{
    ScenarioSpec spec;
    spec.name = "adversarial";
    spec.protocol = protocol;
    spec.blocks = 16384;
    spec.seed = 13;
    spec.duration = 120000;
    spec.warmupCompletions = 32;

    TenantSpec bursty;
    bursty.name = "bursty";
    bursty.rate = 4.0;
    bursty.burstOnCycles = 4000;
    bursty.burstOffCycles = 8000;
    bursty.dist = KeyDist::Zipf;
    bursty.zipfAlpha = 1.2;
    bursty.writeFraction = 0.5;
    spec.tenants.push_back(bursty);

    TenantSpec reader;
    reader.name = "point-lookup";
    reader.rate = 1.5;
    reader.dist = KeyDist::Uniform;
    spec.tenants.push_back(reader);
    return spec;
}

ScenarioRunOptions
securityOnly()
{
    ScenarioRunOptions options;
    options.isolation = false;
    options.security = true;
    return options;
}

void
expectGatesPass(ProtocolKind protocol)
{
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(adversarialSpec(protocol), securityOnly(),
                            &outcome, &error))
        << error;

    const ScenarioSecurity &security = outcome.security;
    ASSERT_TRUE(security.evaluated);
    EXPECT_GT(security.leafObservations, 100u);
    EXPECT_TRUE(security.chiSquare.uniform)
        << "chi2 " << security.chiSquare.statistic << " vs "
        << security.chiSquare.threshold;
    EXPECT_LE(security.serialCorrelation, security.correlationBound());
    EXPECT_GE(security.serialCorrelation, -security.correlationBound());
    if (security.miEvaluated) {
        EXPECT_LE(security.mutualInformationBits,
                  ScenarioSecurity::kMiBound);
    }
    EXPECT_TRUE(security.pass());
}

TEST(ScenarioSecurityTest, PalermoMergedTraceLooksUniform)
{
    expectGatesPass(ProtocolKind::Palermo);
}

TEST(ScenarioSecurityTest, PathOramMergedTraceLooksUniform)
{
    expectGatesPass(ProtocolKind::PathOram);
}

TEST(ScenarioSecurityTest, SkippingSecurityLeavesGateUnevaluated)
{
    ScenarioRunOptions options;
    options.isolation = false;
    options.security = false;
    ScenarioOutcome outcome;
    std::string error;
    ASSERT_TRUE(runScenario(adversarialSpec(ProtocolKind::Palermo),
                            options, &outcome, &error))
        << error;
    EXPECT_FALSE(outcome.security.evaluated);
    EXPECT_TRUE(outcome.security.pass());
}

TEST(ScenarioSecurityTest, CorrelationBoundWidensForShortRuns)
{
    ScenarioSecurity security;
    security.leafObservations = 100;
    // 3/sqrt(100) = 0.3 > the 0.1 fixed bound.
    EXPECT_DOUBLE_EQ(security.correlationBound(), 0.3);
    security.leafObservations = 1000000;
    EXPECT_DOUBLE_EQ(security.correlationBound(),
                     ScenarioSecurity::kCorrelationBound);
    security.leafObservations = 0;
    EXPECT_DOUBLE_EQ(security.correlationBound(),
                     ScenarioSecurity::kCorrelationBound);
}

TEST(ScenarioSecurityTest, GateFailsOnNonUniformSequence)
{
    ScenarioSecurity security;
    security.evaluated = true;
    security.leafObservations = 100000;
    security.chiSquare.uniform = false;
    EXPECT_FALSE(security.pass());

    security.chiSquare.uniform = true;
    security.serialCorrelation = 0.5;
    EXPECT_FALSE(security.pass());

    security.serialCorrelation = 0.0;
    security.miEvaluated = true;
    security.mutualInformationBits = 1.0;
    EXPECT_FALSE(security.pass());

    security.mutualInformationBits = 0.01;
    EXPECT_TRUE(security.pass());
}

} // namespace
} // namespace palermo
