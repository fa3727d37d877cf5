/**
 * @file
 * Declarative design-point grids and the parallel sweep runner.
 *
 * A SweepSpec names values along the axes the paper's evaluation sweeps
 * (protocols, workloads, ring (Z,S,A), PE columns, DRAM channels,
 * prefetch lengths, seeds). expand() takes the cross product against a
 * base configuration and yields an ordered list of DesignPoints with
 * stable ids; SweepRunner executes them on a thread pool. Seeds are
 * fixed at expansion time — never drawn during execution — so serial
 * and parallel runs of the same grid produce identical results.
 */

#ifndef PALERMO_SIM_SWEEP_HH
#define PALERMO_SIM_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/session.hh"
#include "sim/system_config.hh"
#include "trace/trace_gen.hh"

namespace palermo {

/** One fully-resolved experiment in a grid. */
struct DesignPoint
{
    std::size_t index = 0;  ///< Position in expansion order.
    ProtocolKind kind = ProtocolKind::Palermo;
    Workload workload = Workload::Random;
    SystemConfig config;
    std::string id;  ///< Stable "protocol/workload[/axis=value...]" key.

    /**
     * Overrides the workload name in JSON output when non-empty —
     * externally driven points (palermo_replay) report their trace
     * here instead of a synthetic-workload tag.
     */
    std::string workloadLabel;

    /**
     * Exempt this point from the stash-overflow sanity gate. Fig. 4
     * style experiments force prefetch pressure precisely to observe
     * overflow behavior; the JSON still records the overflow flag.
     */
    bool allowStashOverflow = false;
};

/** A design point together with its measured run. */
struct RunRecord
{
    DesignPoint point;
    RunMetrics metrics;
};

/**
 * Declarative grid of design points. Empty axes inherit the base
 * value; non-empty axes take the cross product in a fixed order
 * (protocol, workload, zsa, pe, channels, prefetch, seed), which also
 * fixes point ids and JSON output order.
 */
struct SweepSpec
{
    /** A RingORAM/Palermo (Z, S, A) parameter point. */
    struct Zsa
    {
        unsigned z = 0;
        unsigned s = 0;
        unsigned a = 0;
    };

    std::vector<ProtocolKind> protocols;
    std::vector<Workload> workloads;
    std::vector<Zsa> zsaPoints;
    std::vector<unsigned> peColumns;
    std::vector<unsigned> channels;
    std::vector<unsigned> prefetchLens;
    std::vector<std::uint64_t> seeds;

    /**
     * Parse a spec string: whitespace/';'-separated `axis=v1,v2,...`
     * clauses. Axes: protocol, workload, zsa (values `Z:S:A`), pe,
     * channels, prefetch, seed (aliases: proto, wl, columns, ch, pf).
     * Returns false and fills *error on malformed input.
     */
    static bool parse(const std::string &text, SweepSpec *spec,
                      std::string *error);

    /** True if no axis names any value. */
    bool empty() const;

    /** Number of points expand() will produce (>= 1). */
    std::size_t pointCount() const;

    /**
     * Cross-product expansion against a base design point. A prefetch
     * value of 0 or 1 means "no prefetch"; values > 1 upgrade a plain
     * Palermo base to Palermo+Prefetch (descriptors without the
     * prefetch capability clamp prefetchLen to 1), mirroring the
     * Fig. 13 sweep.
     */
    std::vector<DesignPoint> expand(ProtocolKind base_kind,
                                    Workload base_workload,
                                    const SystemConfig &base) const;
};

/**
 * Executes design points on a thread pool. Results are stored by point
 * index, so the record order (and any JSON rendered from it) does not
 * depend on the number of jobs or on scheduling.
 */
class SweepRunner
{
  public:
    /** @param jobs Worker threads (clamped to [1, #points]). */
    explicit SweepRunner(unsigned jobs = 1) : jobs_(jobs) {}

    /** Run every point to completion and collect the records. */
    std::vector<RunRecord> run(const std::vector<DesignPoint> &points) const;

    unsigned jobs() const { return jobs_; }

  private:
    unsigned jobs_;
};

/**
 * Shared flag-parsing helpers of the sweep-spec, palermo_run,
 * palermo_replay, palermo_loadgen and scenario parsers.
 */

/** Store @p message in *error (when non-null); always returns false. */
bool fail(std::string *error, const std::string &message);

/** Strict base-10 unsigned parse (digits only, no sign/whitespace). */
bool parseUnsigned(const std::string &text, std::uint64_t *value);

/** Strict finite double parse (whole string, no whitespace). */
bool parseDoubleStrict(const std::string &text, double *value);

/** Split "a,b,c" on commas (no empty fields allowed). */
bool splitList(const std::string &text, std::vector<std::string> *fields);

/**
 * Post-run sanity gate: stash overflows and degenerate measurements.
 * Appends one human-readable line per problem; returns true when the
 * records are clean. Benches and palermo_run turn a false result into
 * a nonzero exit code so CI can gate on it.
 */
bool sanityCheck(const std::vector<RunRecord> &records,
                 std::vector<std::string> *problems);

} // namespace palermo

#endif // PALERMO_SIM_SWEEP_HH
