#include "run/cli.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/table.hh"
#include "defense/defense.hh"
#include "noise/environment.hh"
#include "obs/counters.hh"
#include "sim/cpu_model.hh"

namespace lf {

namespace {

/** Split on @p sep, keeping empty pieces (they become errors). */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = text.find(sep, start);
        if (pos == std::string::npos) {
            parts.push_back(text.substr(start));
            return parts;
        }
        parts.push_back(text.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string
parseAxisValues(const std::string &key, const std::string &text,
                std::vector<double> &values)
{
    const auto bad = [&](const std::string &why) {
        return "sweep axis \"" + key + "\": " + why + " in \"" + text +
            "\"";
    };
    if (text.find(':') != std::string::npos) {
        const auto parts = split(text, ':');
        if (parts.size() != 3)
            return bad("want LO:HI:STEP");
        double lo;
        double hi;
        double step;
        if (!parseStrictDouble(parts[0], lo) ||
            !parseStrictDouble(parts[1], hi) ||
            !parseStrictDouble(parts[2], step)) {
            return bad("bad number");
        }
        if (step <= 0.0)
            return bad("STEP must be > 0");
        if (hi < lo)
            return bad("HI must be >= LO");
        // Values are computed as lo + i*step (no accumulation drift);
        // the epsilon admits HI itself despite rounding.
        // An axis longer than a whole grid may be is refused before
        // it allocates (validateSweepSpec() bounds the product); the
        // negated test also catches a count that overflows to inf.
        const double last = std::floor((hi - lo) / step + 1e-9);
        if (!(last < static_cast<double>(kMaxSweepTrials))) {
            return bad("more than " + std::to_string(kMaxSweepTrials) +
                       " points");
        }
        const auto points = static_cast<std::size_t>(last) + 1;
        for (std::size_t i = 0; i < points; ++i)
            values.push_back(lo + static_cast<double>(i) * step);
        return "";
    }
    for (const std::string &piece : split(text, '|')) {
        double value;
        if (!parseStrictDouble(piece, value))
            return bad("bad number");
        values.push_back(value);
    }
    return "";
}

} // namespace

bool
parseStrictDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    if (!std::isfinite(value))
        return false;
    out = value;
    return true;
}

bool
parseStrictUint64(const std::string &text, std::uint64_t &out)
{
    try {
        std::size_t pos = 0;
        const std::uint64_t value = std::stoull(text, &pos);
        if (pos != text.size() ||
            text.find('-') != std::string::npos) {
            return false;
        }
        out = value;
        return true;
    } catch (...) {
        return false;
    }
}

bool
parseStrictInt(const std::string &text, int &out)
{
    try {
        std::size_t pos = 0;
        const int value = std::stoi(text, &pos);
        if (pos != text.size())
            return false;
        out = value;
        return true;
    } catch (...) {
        return false;
    }
}

std::string
parseSetArg(const std::string &text,
            std::map<std::string, double> &overrides)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return "--set wants KEY=VALUE, got \"" + text + "\"";
    const std::string key = text.substr(0, eq);
    double value;
    if (!parseStrictDouble(text.substr(eq + 1), value))
        return "bad --set value in \"" + text + "\"";
    if (overrides.count(key) != 0)
        return "duplicate --set key \"" + key + "\"";
    overrides[key] = value;
    return "";
}

std::string
parseSweepArg(const std::string &text, std::vector<SweepAxis> &axes)
{
    for (const std::string &piece : split(text, ',')) {
        const std::size_t eq = piece.find('=');
        if (eq == std::string::npos || eq == 0) {
            return "--sweep wants KEY=LO:HI:STEP (or KEY=V1|V2...),"
                   " got \"" + piece + "\"";
        }
        SweepAxis axis;
        axis.key = piece.substr(0, eq);
        for (const SweepAxis &existing : axes) {
            if (existing.key == axis.key)
                return "duplicate --sweep key \"" + axis.key + "\"";
        }
        const std::string error =
            parseAxisValues(axis.key, piece.substr(eq + 1),
                            axis.values);
        if (!error.empty())
            return error;
        axes.push_back(std::move(axis));
    }
    return "";
}

namespace {

/** One grid flag: its name and how its value lands in the spec. */
struct GridFlag
{
    const char *name;
    std::string (*apply)(const std::string &value, SweepSpec &sweep);
};

const GridFlag kGridFlags[] = {
    {"--channel", [](const std::string &v, SweepSpec &s) -> std::string {
         s.channels.push_back(v);
         return "";
     }},
    {"--cpu", [](const std::string &v, SweepSpec &s) -> std::string {
         s.cpus.push_back(v);
         return "";
     }},
    {"--trials", [](const std::string &v, SweepSpec &s) -> std::string {
         return parseStrictInt(v, s.trials) && s.trials >= 1
             ? "" : "bad --trials value";
     }},
    {"--seed", [](const std::string &v, SweepSpec &s) -> std::string {
         return parseStrictUint64(v, s.seed) ? "" : "bad --seed value";
     }},
    {"--bits", [](const std::string &v, SweepSpec &s) -> std::string {
         int bits;
         if (!parseStrictInt(v, bits) || bits < 1)
             return "bad --bits value";
         s.messageBits = static_cast<std::size_t>(bits);
         return "";
     }},
    {"--pattern", [](const std::string &v, SweepSpec &s) -> std::string {
         MessagePattern pattern;
         if (!messagePatternFromString(v, pattern))
             return "unknown pattern \"" + v + "\"";
         s.patterns = {pattern};
         return "";
     }},
    {"--preamble", [](const std::string &v, SweepSpec &s) -> std::string {
         return parseStrictInt(v, s.preambleBits) && s.preambleBits >= 2
             ? "" : "bad --preamble value";
     }},
    {"--set", [](const std::string &v, SweepSpec &s) {
         return parseSetArg(v, s.baseOverrides);
     }},
    {"--sweep", [](const std::string &v, SweepSpec &s) {
         return parseSweepArg(v, s.axes);
     }},
};

const GridFlag *
findGridFlag(const std::string &flag)
{
    for (const GridFlag &grid : kGridFlags) {
        if (flag == grid.name)
            return &grid;
    }
    return nullptr;
}

} // namespace

bool
isGridFlag(const std::string &flag)
{
    return findGridFlag(flag) != nullptr;
}

std::string
parseGridFlag(const std::string &flag, const std::string &value,
              SweepSpec &sweep)
{
    const GridFlag *grid = findGridFlag(flag);
    if (grid == nullptr)
        return "\"" + flag + "\" is not a grid flag";
    return grid->apply(value, sweep);
}

void
expandGridNames(SweepSpec &sweep)
{
    if (sweep.channels.size() == 1 && sweep.channels[0] == "all")
        sweep.channels = allChannelNames();
    if (sweep.cpus.empty() ||
        (sweep.cpus.size() == 1 && sweep.cpus[0] == "all")) {
        sweep.cpus.clear();
        for (const CpuModel *model : allCpuModels())
            sweep.cpus.push_back(model->name);
    }
}

std::string
parseShardArg(const std::string &text, SweepShard &shard)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 >= text.size()) {
        return "--shard wants I/N, got \"" + text + "\"";
    }
    int index;
    int count;
    if (!parseStrictInt(text.substr(0, slash), index) ||
        !parseStrictInt(text.substr(slash + 1), count)) {
        return "--shard wants integers I/N, got \"" + text + "\"";
    }
    if (count < 1 || index < 0 || index >= count) {
        return "--shard " + text + " out of range (need 0 <= I < N)";
    }
    shard.index = index;
    shard.count = count;
    return "";
}

std::string
renderChannelCatalog()
{
    TextTable table("Registered covert channels");
    table.setHeader({"Name", "Needs", "Default", "Description"});
    for (const std::string &name : allChannelNames()) {
        const ChannelInfo &info = channelInfo(name);
        std::string needs;
        if (info.requiresSmt)
            needs += "SMT ";
        if (info.requiresSgx)
            needs += "SGX ";
        if (needs.empty())
            needs = "-";
        const ChannelConfig &cfg = info.defaultConfig;
        std::string defaults = "d=" + std::to_string(cfg.d) +
            " M=" + std::to_string(cfg.M) +
            (cfg.stealthy ? " stealthy" : "");
        table.addRow({name, needs, defaults, info.description});
    }
    std::ostringstream os;
    os << table.render() << "\nCPU models:";
    for (const CpuModel *cpu : allCpuModels())
        os << " \"" << cpu->name << "\"";
    os << "\n";
    return os.str();
}

std::string
renderOverrideKeyCatalog()
{
    const auto family = [](std::ostringstream &os, const char *title,
                           const std::vector<std::string> &keys) {
        os << title << ":\n ";
        for (const std::string &key : keys)
            os << " " << key;
        os << "\n";
    };
    std::ostringstream os;
    family(os, "Config override keys (--set / --sweep)",
           channelOverrideKeys());
    family(os, "CPU model override keys (--set / --sweep)",
           modelOverrideKeys());
    family(os, "Environment override keys (--set / --sweep)",
           envOverrideKeys());
    family(os, "Defense override keys (--set / --sweep)",
           defenseOverrideKeys());
    return os.str();
}

std::string
renderCounterCatalog()
{
    TextTable table("Microarchitectural counters");
    table.setHeader({"Name", "Description"});
    for (const obs::CounterInfo &info : obs::counterCatalog())
        table.addRow({info.name, info.description});
    return table.render();
}

namespace {

/** Span of the moving rate window (seconds). */
constexpr double kRateWindowSeconds = 5.0;
/** Samples closer together than this coalesce, bounding the window
 *  deque even when update() is called per row in a tight loop. */
constexpr double kSampleSpacingSeconds = 0.02;

} // namespace

ProgressMeter::ProgressMeter(std::string label, std::size_t total)
    : label_(std::move(label)), total_(total), sink_(stderr),
      lastUpdate_(std::chrono::steady_clock::now())
{
}

std::chrono::steady_clock::time_point
ProgressMeter::now() const
{
    return clock_ ? clock_() : std::chrono::steady_clock::now();
}

void
ProgressMeter::setClock(Clock clock)
{
    clock_ = std::move(clock);
    lastUpdate_ = now();
    samples_.clear();
    drew_ = false;
    finalDrawn_ = false;
    rate_ = 0.0;
    eta_ = 0.0;
}

void
ProgressMeter::setSink(std::FILE *sink)
{
    sink_ = sink;
}

void
ProgressMeter::recomputeRate(std::chrono::steady_clock::time_point t,
                             std::size_t done)
{
    const auto seconds = [](auto span) {
        return std::chrono::duration<double>(span).count();
    };
    // Coalesce near-coincident samples (but never the baseline
    // sample itself, or a burst would erase its own starting point).
    if (samples_.size() >= 2 &&
        seconds(t - samples_.back().first) < kSampleSpacingSeconds) {
        samples_.back() = {t, done};
    } else {
        samples_.emplace_back(t, done);
    }
    // Trim to the window, always keeping two samples so the rate has
    // a baseline to difference against.
    while (samples_.size() > 2 &&
           seconds(t - samples_.front().first) > kRateWindowSeconds) {
        samples_.pop_front();
    }
    const double span = seconds(t - samples_.front().first);
    const std::size_t base = samples_.front().second;
    rate_ = span > 0.0 && done > base
        ? static_cast<double>(done - base) / span
        : 0.0;
    const std::size_t left = done < total_ ? total_ - done : 0;
    eta_ = rate_ > 0.0 ? static_cast<double>(left) / rate_ : 0.0;
}

void
ProgressMeter::update(std::size_t done, const std::string &extra)
{
    const auto t = now();
    recomputeRate(t, done);

    // Throttled redraw, with one guaranteed (but only one — a caller
    // looping on the final count must not spam) final draw.
    const bool final_draw = done >= total_ && !finalDrawn_;
    const double sinceUpdate =
        std::chrono::duration<double>(t - lastUpdate_).count();
    if (drew_ && sinceUpdate < 0.1 && !final_draw)
        return;
    if (done >= total_)
        finalDrawn_ = true;
    lastUpdate_ = t;
    drew_ = true;
    if (sink_ == nullptr)
        return;
    std::fprintf(sink_, "\r[%s] %zu/%zu trials  %.1f trials/s"
                 "  ETA %.0fs%s%s ",
                 label_.c_str(), done, total_, rate_, eta_,
                 extra.empty() ? "" : "  ", extra.c_str());
    std::fflush(sink_);
}

void
ProgressMeter::finish()
{
    if (drew_ && sink_ != nullptr)
        std::fprintf(sink_, "\n");
    drew_ = false;
}

void
ProgressMeter::finishWith(const std::string &line)
{
    if (sink_ == nullptr) {
        drew_ = false;
        return;
    }
    if (drew_) {
        // Pad past the longest frame update() draws (~100 chars plus
        // the caller extra) so no tail of the old frame survives.
        std::fprintf(sink_, "\r[%s] %-110s\n", label_.c_str(),
                     line.c_str());
    } else {
        std::fprintf(sink_, "[%s] %s\n", label_.c_str(), line.c_str());
    }
    drew_ = false;
}

} // namespace lf
