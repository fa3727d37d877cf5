/**
 * @file
 * Scenario parsing, validation, and canonical rendering.
 */

#include "scenario/scenario.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "sim/json_value.hh"
#include "sim/metrics_json.hh"
#include "sim/sweep.hh"

namespace palermo {

namespace {

/** Largest double that still holds every integer exactly. */
constexpr double kMaxExactInteger = 9007199254740992.0; // 2^53

bool
toUnsigned(const JsonValue &value, std::uint64_t *out)
{
    if (!value.isNumber())
        return false;
    const double number = value.number();
    if (!(number >= 0.0) || number > kMaxExactInteger
        || number != std::floor(number))
        return false;
    *out = static_cast<std::uint64_t>(number);
    return true;
}

bool
toFraction(const JsonValue &value, double *out)
{
    if (!value.isNumber())
        return false;
    const double number = value.number();
    if (!(number >= 0.0) || !(number <= 1.0))
        return false;
    *out = number;
    return true;
}

/** Every member key must appear in the allowed list. */
bool
checkKeys(const JsonValue &object, const char *const *allowed,
          std::size_t count, const std::string &where,
          std::string *error)
{
    for (const auto &[key, value] : object.members()) {
        (void)value;
        bool known = false;
        for (std::size_t i = 0; i < count; ++i)
            known = known || key == allowed[i];
        if (!known)
            return fail(error, where + ": unknown key '" + key + "'");
    }
    return true;
}

bool
parseRateCurve(const JsonValue &value, const std::string &where,
               std::vector<RateCurve::Segment> *out, std::string *error)
{
    if (!value.isArray() || value.array().empty())
        return fail(error, where + ": needs a non-empty array");
    bool any_positive = false;
    for (std::size_t i = 0; i < value.array().size(); ++i) {
        const JsonValue &entry = value.array()[i];
        const std::string at = where + "[" + std::to_string(i) + "]";
        static const char *const keys[] = {"until", "rate"};
        if (!entry.isObject())
            return fail(error, at + ": needs an object");
        if (!checkKeys(entry, keys, 2, at, error))
            return false;
        RateCurve::Segment segment{kTickNever, 0.0};
        const bool last = i + 1 == value.array().size();
        if (const JsonValue *until = entry.find("until")) {
            if (last)
                return fail(error, at + ": the final segment is "
                                       "open-ended (omit 'until')");
            if (!toUnsigned(*until, &segment.untilCycle)
                || segment.untilCycle == 0)
                return fail(error,
                            at + ".until: needs a positive integer");
            if (!out->empty()
                && segment.untilCycle <= out->back().untilCycle)
                return fail(error,
                            at + ".until: must increase strictly");
        } else if (!last) {
            return fail(error,
                        at + ": only the final segment omits 'until'");
        }
        const JsonValue *rate = entry.find("rate");
        if (!rate || !rate->isNumber() || !(rate->number() >= 0.0))
            return fail(error, at + ".rate: needs a number >= 0");
        segment.ratePerKilocycle = rate->number();
        any_positive = any_positive || segment.ratePerKilocycle > 0.0;
        out->push_back(segment);
    }
    if (!any_positive)
        return fail(error, where + ": every segment is silent");
    return true;
}

bool
parseTenant(const JsonValue &value, const std::string &base_dir,
            std::size_t index, TenantSpec *out, std::string *error)
{
    const std::string where = "tenants[" + std::to_string(index) + "]";
    if (!value.isObject())
        return fail(error, where + ": needs an object");
    static const char *const keys[] = {
        "name",       "trace",        "mode",          "arrival",
        "rate",       "rate_curve",   "concurrency",   "burst",
        "dist",       "zipf_alpha",   "write_fraction", "scan_fraction",
        "scan_length",
    };
    if (!checkKeys(value, keys, sizeof(keys) / sizeof(keys[0]), where,
                   error))
        return false;

    TenantSpec tenant;
    const JsonValue *name = value.find("name");
    if (!name || !name->isString() || name->string().empty())
        return fail(error, where + ".name: needs a non-empty string");
    tenant.name = name->string();

    if (const JsonValue *trace = value.find("trace")) {
        if (!trace->isString() || trace->string().empty())
            return fail(error,
                        where + ".trace: needs a non-empty path");
        tenant.source = SourceKind::Trace;
        tenant.tracePath = trace->string();
        tenant.resolvedTracePath =
            (base_dir.empty() || trace->string().front() == '/')
                ? trace->string()
                : base_dir + "/" + trace->string();
    }

    if (const JsonValue *mode = value.find("mode")) {
        if (!mode->isString()
            || (mode->string() != "open" && mode->string() != "closed"))
            return fail(error, where + ".mode: needs open|closed");
        tenant.closedLoop = mode->string() == "closed";
    }

    const bool open = !tenant.closedLoop;
    if (const JsonValue *arrival = value.find("arrival")) {
        if (!open)
            return fail(error, where + ".arrival: closed-loop sources "
                                       "have no arrival process");
        if (!arrival->isString()
            || !arrivalProcessFromName(arrival->string(),
                                       &tenant.process))
            return fail(error, where + ".arrival: needs poisson|fixed");
    }
    const JsonValue *rate = value.find("rate");
    const JsonValue *curve = value.find("rate_curve");
    if (!open && (rate || curve))
        return fail(error, where + ": closed-loop sources take a "
                                   "concurrency, not a rate");
    if (rate && curve)
        return fail(error,
                    where + ": give 'rate' or 'rate_curve', not both");
    if (rate) {
        if (!rate->isNumber() || !(rate->number() > 0.0))
            return fail(error, where + ".rate: needs a number > 0");
        tenant.rate = rate->number();
    }
    if (curve
        && !parseRateCurve(*curve, where + ".rate_curve",
                           &tenant.rateCurve, error))
        return false;

    if (const JsonValue *concurrency = value.find("concurrency")) {
        if (open)
            return fail(error, where + ".concurrency: open-loop "
                                       "sources take a rate");
        std::uint64_t parsed = 0;
        if (!toUnsigned(*concurrency, &parsed) || parsed == 0
            || parsed > 1u << 20)
            return fail(error,
                        where + ".concurrency: needs a positive count");
        tenant.concurrency = static_cast<unsigned>(parsed);
    }

    if (const JsonValue *burst = value.find("burst")) {
        if (!open)
            return fail(error, where + ".burst: closed-loop sources "
                                       "cannot burst");
        static const char *const burst_keys[] = {"on", "off"};
        if (!burst->isObject())
            return fail(error, where + ".burst: needs an object");
        if (!checkKeys(*burst, burst_keys, 2, where + ".burst", error))
            return false;
        const JsonValue *on = burst->find("on");
        const JsonValue *off = burst->find("off");
        if (!on || !toUnsigned(*on, &tenant.burstOnCycles)
            || tenant.burstOnCycles == 0)
            return fail(error,
                        where + ".burst.on: needs a positive cycle "
                                "count");
        if (!off || !toUnsigned(*off, &tenant.burstOffCycles)
            || tenant.burstOffCycles == 0)
            return fail(error,
                        where + ".burst.off: needs a positive cycle "
                                "count (omit burst for always-on)");
    }

    const bool synthetic = tenant.source == SourceKind::Synthetic;
    if (const JsonValue *dist = value.find("dist")) {
        if (!synthetic)
            return fail(error, where + ".dist: trace sources take "
                                       "their keys from the trace");
        if (!dist->isString()
            || !keyDistFromName(dist->string(), &tenant.dist))
            return fail(error, where + ".dist: needs zipf|uniform");
    }
    if (const JsonValue *alpha = value.find("zipf_alpha")) {
        if (!synthetic || tenant.dist != KeyDist::Zipf)
            return fail(error, where + ".zipf_alpha: only Zipf "
                                       "synthetic sources take a skew");
        if (!alpha->isNumber() || !(alpha->number() >= 0.0))
            return fail(error,
                        where + ".zipf_alpha: needs a number >= 0");
        tenant.zipfAlpha = alpha->number();
    }
    if (const JsonValue *write = value.find("write_fraction")) {
        if (!synthetic)
            return fail(error, where + ".write_fraction: trace sources "
                                       "replay their own read/write mix");
        if (!toFraction(*write, &tenant.writeFraction))
            return fail(error,
                        where + ".write_fraction: needs 0 <= F <= 1");
    }
    if (const JsonValue *scan = value.find("scan_fraction")) {
        if (!synthetic)
            return fail(error, where + ".scan_fraction: trace sources "
                                       "replay their own pattern");
        if (!toFraction(*scan, &tenant.scanFraction))
            return fail(error,
                        where + ".scan_fraction: needs 0 <= F <= 1");
    }
    if (const JsonValue *length = value.find("scan_length")) {
        if (!synthetic || !value.find("scan_fraction"))
            return fail(error, where + ".scan_length: needs a "
                                       "scan_fraction alongside");
        if (!toUnsigned(*length, &tenant.scanLength)
            || tenant.scanLength < 2)
            return fail(error,
                        where + ".scan_length: needs an integer >= 2");
    }
    if (tenant.scanFraction > 0.0 && !value.find("scan_length"))
        tenant.scanLength = 8; // Documented default.

    *out = tenant;
    return true;
}

} // namespace

const char *
sourceKindName(SourceKind kind)
{
    switch (kind) {
      case SourceKind::Synthetic: return "synthetic";
      case SourceKind::Trace: return "trace";
    }
    return "synthetic";
}

bool
parseScenario(const std::string &text, const std::string &base_dir,
              ScenarioSpec *out, std::string *error)
{
    JsonValue document;
    if (!JsonValue::parse(text, &document, error))
        return false;
    if (!document.isObject())
        return fail(error, "scenario: top level must be an object");
    static const char *const keys[] = {
        "name",          "protocol",       "blocks",
        "seed",          "duration",       "warmup_completions",
        "queue_capacity", "queue_policy",  "session_depth",
        "tenants",
    };
    if (!checkKeys(document, keys, sizeof(keys) / sizeof(keys[0]),
                   "scenario", error))
        return false;

    ScenarioSpec spec;
    const JsonValue *name = document.find("name");
    if (!name || !name->isString() || name->string().empty())
        return fail(error, "scenario.name: needs a non-empty string");
    spec.name = name->string();

    if (const JsonValue *protocol = document.find("protocol")) {
        if (!protocol->isString()
            || !protocolFromName(protocol->string(), &spec.protocol))
            return fail(error, "scenario.protocol: unknown protocol '"
                                   + (protocol->isString()
                                          ? protocol->string()
                                          : std::string("?"))
                                   + "'");
    }
    if (const JsonValue *blocks = document.find("blocks")) {
        if (!toUnsigned(*blocks, &spec.blocks) || spec.blocks == 0)
            return fail(error,
                        "scenario.blocks: needs a positive integer");
    }
    if (const JsonValue *seed = document.find("seed")) {
        if (!toUnsigned(*seed, &spec.seed))
            return fail(error,
                        "scenario.seed: needs an unsigned integer");
    }
    if (const JsonValue *duration = document.find("duration")) {
        if (!toUnsigned(*duration, &spec.duration)
            || spec.duration == 0)
            return fail(error,
                        "scenario.duration: needs a positive cycle "
                        "count");
    }
    if (const JsonValue *warmup = document.find("warmup_completions")) {
        if (!toUnsigned(*warmup, &spec.warmupCompletions))
            return fail(error, "scenario.warmup_completions: needs an "
                               "unsigned integer");
    }
    if (const JsonValue *capacity = document.find("queue_capacity")) {
        if (!toUnsigned(*capacity, &spec.queueCapacity)
            || spec.queueCapacity == 0)
            return fail(error, "scenario.queue_capacity: needs a "
                               "positive integer");
    }
    if (const JsonValue *policy = document.find("queue_policy")) {
        if (!policy->isString()
            || !queuePolicyFromName(policy->string(),
                                    &spec.queuePolicy))
            return fail(error,
                        "scenario.queue_policy: needs reject|block");
    }
    if (const JsonValue *depth = document.find("session_depth")) {
        if (!toUnsigned(*depth, &spec.sessionDepth)
            || spec.sessionDepth == 0)
            return fail(error, "scenario.session_depth: needs a "
                               "positive integer");
    }

    const JsonValue *tenants = document.find("tenants");
    if (!tenants || !tenants->isArray() || tenants->array().empty())
        return fail(error,
                    "scenario.tenants: needs a non-empty array");
    for (std::size_t i = 0; i < tenants->array().size(); ++i) {
        TenantSpec tenant;
        if (!parseTenant(tenants->array()[i], base_dir, i, &tenant,
                         error))
            return false;
        for (const TenantSpec &existing : spec.tenants)
            if (existing.name == tenant.name)
                return fail(error, "tenants[" + std::to_string(i)
                                       + "].name: duplicate tenant '"
                                       + tenant.name + "'");
        spec.tenants.push_back(std::move(tenant));
    }

    *out = std::move(spec);
    return true;
}

bool
loadScenarioFile(const std::string &path, ScenarioSpec *out,
                 std::string *error)
{
    std::ifstream in(path);
    if (!in)
        return fail(error, "cannot open scenario file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    const std::size_t slash = path.find_last_of('/');
    const std::string base_dir =
        slash == std::string::npos ? std::string() : path.substr(0, slash);
    if (!parseScenario(text.str(), base_dir, out, error)) {
        if (error)
            *error = path + ": " + *error;
        return false;
    }
    return true;
}

std::string
writeScenario(const ScenarioSpec &spec)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", spec.name);
    w.field("protocol", protocolShortName(spec.protocol));
    if (spec.blocks)
        w.field("blocks", spec.blocks);
    w.field("seed", spec.seed);
    w.field("duration", spec.duration);
    w.field("warmup_completions", spec.warmupCompletions);
    w.field("queue_capacity", spec.queueCapacity);
    w.field("queue_policy", queuePolicyName(spec.queuePolicy));
    w.field("session_depth", spec.sessionDepth);
    w.key("tenants").beginArray();
    for (const TenantSpec &tenant : spec.tenants) {
        w.beginObject();
        w.field("name", tenant.name);
        if (tenant.source == SourceKind::Trace)
            w.field("trace", tenant.tracePath);
        w.field("mode", tenant.closedLoop ? "closed" : "open");
        if (tenant.closedLoop) {
            w.field("concurrency", tenant.concurrency);
        } else {
            w.field("arrival", arrivalProcessName(tenant.process));
            if (tenant.rateCurve.empty()) {
                w.field("rate", tenant.rate);
            } else {
                w.key("rate_curve").beginArray();
                for (const RateCurve::Segment &segment :
                     tenant.rateCurve) {
                    w.beginObject();
                    if (segment.untilCycle != kTickNever)
                        w.field("until", segment.untilCycle);
                    w.field("rate", segment.ratePerKilocycle);
                    w.endObject();
                }
                w.endArray();
            }
            if (tenant.burstOffCycles) {
                w.key("burst").beginObject();
                w.field("on", tenant.burstOnCycles);
                w.field("off", tenant.burstOffCycles);
                w.endObject();
            }
        }
        if (tenant.source == SourceKind::Synthetic) {
            w.field("dist", keyDistName(tenant.dist));
            if (tenant.dist == KeyDist::Zipf)
                w.field("zipf_alpha", tenant.zipfAlpha);
            if (tenant.scanFraction > 0.0) {
                w.field("scan_fraction", tenant.scanFraction);
                w.field("scan_length", tenant.scanLength);
            }
            w.field("write_fraction", tenant.writeFraction);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::string text = w.str();
    text.push_back('\n');
    return text;
}

} // namespace palermo
