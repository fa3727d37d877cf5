/**
 * @file
 * SweepSpec parsing/expansion and the thread-pool SweepRunner.
 */

#include "sim/sweep.hh"

#include <atomic>
#include <charconv>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/protocol_registry.hh"

namespace palermo {

namespace {

/** Split on a delimiter, dropping empty pieces. */
std::vector<std::string>
splitNonEmpty(const std::string &text, const char *delims)
{
    std::vector<std::string> pieces;
    std::string current;
    for (char c : text) {
        if (std::string(delims).find(c) != std::string::npos) {
            if (!current.empty())
                pieces.push_back(current);
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    if (!current.empty())
        pieces.push_back(current);
    return pieces;
}

} // namespace

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

bool
parseUnsigned(const std::string &text, std::uint64_t *value)
{
    if (text.empty())
        return false;
    std::uint64_t result = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (result > (UINT64_MAX - digit) / 10)
            return false; // Overflow: reject, don't wrap.
        result = result * 10 + digit;
    }
    *value = result;
    return true;
}

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

bool
SweepSpec::parse(const std::string &text, SweepSpec *spec,
                 std::string *error)
{
    SweepSpec result;
    for (const std::string &clause : splitNonEmpty(text, "; \t\n")) {
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= clause.size())
            return fail(error, "malformed sweep clause '" + clause
                                   + "' (want axis=v1,v2,...)");
        const std::string axis = clause.substr(0, eq);
        const std::vector<std::string> values =
            splitNonEmpty(clause.substr(eq + 1), ",");
        if (values.empty())
            return fail(error, "sweep axis '" + axis + "' has no values");

        if (axis == "protocol" || axis == "proto") {
            for (const std::string &v : values) {
                ProtocolKind kind;
                if (!protocolFromName(v, &kind))
                    return fail(error, "unknown protocol '" + v + "'");
                result.protocols.push_back(kind);
            }
        } else if (axis == "workload" || axis == "wl") {
            for (const std::string &v : values) {
                Workload workload;
                if (!tryWorkloadFromName(v, &workload))
                    return fail(error, "unknown workload '" + v + "'");
                result.workloads.push_back(workload);
            }
        } else if (axis == "zsa") {
            for (const std::string &v : values) {
                const std::vector<std::string> parts =
                    splitNonEmpty(v, ":");
                std::uint64_t z = 0;
                std::uint64_t s = 0;
                std::uint64_t a = 0;
                if (parts.size() != 3 || !parseUnsigned(parts[0], &z)
                    || !parseUnsigned(parts[1], &s)
                    || !parseUnsigned(parts[2], &a) || z == 0 || s == 0
                    || a == 0)
                    return fail(error, "malformed zsa point '" + v
                                           + "' (want Z:S:A)");
                result.zsaPoints.push_back(
                    {static_cast<unsigned>(z), static_cast<unsigned>(s),
                     static_cast<unsigned>(a)});
            }
        } else if (axis == "pe" || axis == "columns") {
            for (const std::string &v : values) {
                std::uint64_t n = 0;
                if (!parseUnsigned(v, &n) || n == 0)
                    return fail(error, "bad pe count '" + v + "'");
                result.peColumns.push_back(static_cast<unsigned>(n));
            }
        } else if (axis == "channels" || axis == "ch") {
            for (const std::string &v : values) {
                std::uint64_t n = 0;
                if (!parseUnsigned(v, &n) || n == 0)
                    return fail(error, "bad channel count '" + v + "'");
                result.channels.push_back(static_cast<unsigned>(n));
            }
        } else if (axis == "prefetch" || axis == "pf") {
            for (const std::string &v : values) {
                std::uint64_t n = 0;
                if (!parseUnsigned(v, &n))
                    return fail(error, "bad prefetch length '" + v + "'");
                result.prefetchLens.push_back(static_cast<unsigned>(n));
            }
        } else if (axis == "seed") {
            for (const std::string &v : values) {
                std::uint64_t n = 0;
                if (!parseUnsigned(v, &n))
                    return fail(error, "bad seed '" + v + "'");
                result.seeds.push_back(n);
            }
        } else {
            return fail(error, "unknown sweep axis '" + axis + "'");
        }
    }
    *spec = result;
    return true;
}

bool
SweepSpec::empty() const
{
    return protocols.empty() && workloads.empty() && zsaPoints.empty()
        && peColumns.empty() && channels.empty() && prefetchLens.empty()
        && seeds.empty();
}

std::size_t
SweepSpec::pointCount() const
{
    const auto dim = [](std::size_t n) { return n ? n : 1; };
    return dim(protocols.size()) * dim(workloads.size())
        * dim(zsaPoints.size()) * dim(peColumns.size())
        * dim(channels.size()) * dim(prefetchLens.size())
        * dim(seeds.size());
}

std::vector<DesignPoint>
SweepSpec::expand(ProtocolKind base_kind, Workload base_workload,
                  const SystemConfig &base) const
{
    std::vector<DesignPoint> points;
    points.reserve(pointCount());

    const std::vector<ProtocolKind> kinds =
        protocols.empty() ? std::vector<ProtocolKind>{base_kind}
                          : protocols;
    const std::vector<Workload> loads =
        workloads.empty() ? std::vector<Workload>{base_workload}
                          : workloads;
    // Sentinel-carrying copies so every loop below runs at least once.
    const std::vector<Zsa> zsas =
        zsaPoints.empty() ? std::vector<Zsa>{Zsa{}} : zsaPoints;
    const std::vector<unsigned> pes =
        peColumns.empty() ? std::vector<unsigned>{0} : peColumns;
    const std::vector<unsigned> chans =
        channels.empty() ? std::vector<unsigned>{0} : channels;
    const std::vector<unsigned> pfs =
        prefetchLens.empty() ? std::vector<unsigned>{0} : prefetchLens;
    const std::vector<std::uint64_t> seedvals =
        seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;

    for (ProtocolKind kind : kinds) {
        for (Workload workload : loads) {
            for (const Zsa &zsa : zsas) {
                for (unsigned pe : pes) {
                    for (unsigned chan : chans) {
                        for (unsigned pf : pfs) {
                            for (std::uint64_t seed : seedvals) {
                                DesignPoint point;
                                point.index = points.size();
                                point.kind = kind;
                                point.workload = workload;
                                point.config = base;

                                std::ostringstream id;
                                id << protocolShortName(kind) << '/'
                                   << workloadName(workload);
                                if (!zsaPoints.empty()) {
                                    point.config.protocol.ringZ = zsa.z;
                                    point.config.protocol.ringS = zsa.s;
                                    point.config.protocol.ringA = zsa.a;
                                    id << "/zsa=" << zsa.z << ':' << zsa.s
                                       << ':' << zsa.a;
                                }
                                if (!peColumns.empty()) {
                                    point.config.palermo.columns = pe;
                                    id << "/pe=" << pe;
                                }
                                if (!channels.empty()) {
                                    point.config.dram.org.channels = chan;
                                    id << "/ch=" << chan;
                                }
                                if (!prefetchLens.empty()) {
                                    // 0 and 1 both mean "no prefetch".
                                    const unsigned len = pf ? pf : 1;
                                    point.config.protocol.prefetchLen =
                                        len;
                                    if (len > 1
                                        && kind == ProtocolKind::Palermo)
                                        point.kind =
                                            ProtocolKind::PalermoPrefetch;
                                    id << "/prefetch=" << pf;
                                }
                                if (!seeds.empty())
                                    id << "/seed=" << seed;
                                point.config.seed = seed;
                                point.config.protocol.seed = seed;
                                // Record what will actually run: the
                                // descriptor's capability clamp and
                                // config-adjust hook applied.
                                point.config = normalizedProtocolConfig(
                                    point.kind, point.config);
                                point.id = id.str();
                                points.push_back(std::move(point));
                            }
                        }
                    }
                }
            }
        }
    }
    return points;
}

std::vector<RunRecord>
SweepRunner::run(const std::vector<DesignPoint> &points) const
{
    std::vector<RunRecord> records(points.size());
    if (points.empty())
        return records;

    std::atomic<std::size_t> next{0};
    const auto worker = [&]() {
        for (std::size_t i = next.fetch_add(1); i < points.size();
             i = next.fetch_add(1)) {
            records[i].point = points[i];
            records[i].metrics =
                makeSession(points[i].kind, points[i].workload,
                            points[i].config)
                    ->finish();
        }
    };

    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        std::max(1u, jobs_), points.size()));
    if (workers == 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            threads.emplace_back(worker);
        for (std::thread &thread : threads)
            thread.join();
    }
    return records;
}

bool
sanityCheck(const std::vector<RunRecord> &records,
            std::vector<std::string> *problems)
{
    bool clean = true;
    const auto report = [&](const std::string &message) {
        clean = false;
        if (problems)
            problems->push_back(message);
    };
    for (const RunRecord &record : records) {
        const RunMetrics &m = record.metrics;
        if (m.stashOverflowed && !record.point.allowStashOverflow)
            report(record.point.id + ": stash overflowed (max "
                   + std::to_string(m.stashMax) + " of "
                   + std::to_string(m.stashCapacity) + ")");
        if (m.measuredRequests == 0)
            report(record.point.id + ": no requests measured");
        if (!std::isfinite(m.requestsPerKilocycle)
            || m.requestsPerKilocycle <= 0.0)
            report(record.point.id + ": degenerate throughput");
    }
    return clean;
}

} // namespace palermo
