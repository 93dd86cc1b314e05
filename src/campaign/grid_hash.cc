#include "campaign/grid_hash.hh"

#include <cstdio>

#include "common/message.hh"
#include "run/sinks.hh"

namespace lf {

namespace {

/** Append one field as "name=value\n"; the caller guarantees values
 *  are rendered deterministically (jsonNumber for doubles). The
 *  newline keeps adjacent fields from gluing into ambiguous text
 *  ("ab"+"c" vs "a"+"bc"). */
void
field(std::string &out, const char *name, const std::string &value)
{
    out += name;
    out += '=';
    out += value;
    out += '\n';
}

} // namespace

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hashHex(std::uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
canonicalSweepText(const SweepSpec &spec)
{
    std::string out = "lfcampaign-grid v1\n";
    field(out, "label", spec.label);
    for (const std::string &channel : spec.channels)
        field(out, "channel", channel);
    for (const std::string &cpu : spec.cpus)
        field(out, "cpu", cpu);
    for (const MessagePattern pattern : spec.patterns)
        field(out, "pattern", toString(pattern));
    for (const SweepAxis &axis : spec.axes) {
        std::string values;
        for (const double value : axis.values) {
            values += ' ';
            values += jsonNumber(value);
        }
        field(out, "axis", axis.key + values);
    }
    for (const auto &[key, value] : spec.baseOverrides)
        field(out, "set", key + " " + jsonNumber(value));
    field(out, "trials", std::to_string(spec.trials));
    field(out, "seed", std::to_string(spec.seed));
    field(out, "message_bits", std::to_string(spec.messageBits));
    field(out, "preamble_bits", std::to_string(spec.preambleBits));
    return out;
}

std::string
gridHash(const SweepSpec &spec)
{
    return hashHex(fnv1a64(canonicalSweepText(spec)));
}

std::string
canonicalTrialText(const ExperimentSpec &spec)
{
    std::string out = "lfcampaign-trial v1\n";
    field(out, "label", spec.label);
    field(out, "channel", spec.channel);
    field(out, "cpu", spec.cpu);
    field(out, "seed", std::to_string(spec.seed));
    field(out, "trial", std::to_string(spec.trial));
    field(out, "pattern", toString(spec.pattern));
    field(out, "message_bits", std::to_string(spec.messageBits));
    field(out, "preamble_bits", std::to_string(spec.preambleBits));
    for (const auto &[key, value] : spec.overrides)
        field(out, "set", key + " " + jsonNumber(value));
    return out;
}

std::string
trialKey(const ExperimentSpec &spec)
{
    return hashHex(fnv1a64(canonicalTrialText(spec)));
}

std::string
cellKey(const ExperimentSpec &spec)
{
    return hashHex(fnv1a64(cellKeyOf(spec)));
}

} // namespace lf
