/**
 * @file
 * Scenario driver plumbing shared by tools/palermo_scenario and
 * palermo_replay's --scenario mode (and unit-tested like run_cli):
 * flag parsing, the human-readable per-tenant table, and the
 * palermo-metrics-v1 document with the per-tenant "scenario" block.
 */

#ifndef PALERMO_SCENARIO_SCENARIO_CLI_HH
#define PALERMO_SCENARIO_SCENARIO_CLI_HH

#include <string>

#include "scenario/engine.hh"

namespace palermo {

/** Everything palermo_scenario accepts on its command line. */
struct ScenarioCliOptions
{
    std::string scenarioPath;   ///< Positional or --scenario FILE.
    std::string jsonPath;       ///< --json PATH ("-" = stdout).
    bool noIsolation = false;   ///< --no-isolation: skip baselines.
    bool noSecurity = false;    ///< --no-security: skip the gates.
    bool listProtocols = false; ///< --list-protocols (registry).
    bool help = false;          ///< --help / -h.

    /** Resolve engine options from the flags. */
    ScenarioRunOptions runOptions() const
    {
        ScenarioRunOptions options;
        options.isolation = !noIsolation;
        options.security = !noSecurity;
        return options;
    }
};

/** Parse palermo_scenario argv (excluding argv[0]). */
bool parseScenarioCliArgs(int argc, const char *const *argv,
                          ScenarioCliOptions *options,
                          std::string *error);

/** Usage text for palermo_scenario. */
std::string scenarioUsage();

/** Human-readable per-tenant summary table. */
std::string scenarioTable(const ScenarioOutcome &outcome);

/**
 * Render one scenario run as a palermo-metrics-v1 document: the shared
 * run as point 0 with "scenario" (per-tenant stats, fairness,
 * security) and "service" blocks, each isolation baseline as its own
 * point, and fairness/interference scalars under "derived".
 * Byte-deterministic; @p tool names the producing binary.
 */
std::string scenarioDocument(const ScenarioOutcome &outcome,
                             const std::string &tool);

} // namespace palermo

#endif // PALERMO_SCENARIO_SCENARIO_CLI_HH
