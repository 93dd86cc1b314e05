#include "run/sweep.hh"

#include <cstdio>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "sim/cpu_model.hh"

namespace lf {

namespace {

/** Cell seeds use their own salt so the cell chain never collides
 *  with the trial chain of deriveTrialSeed() (cell k's trial 0 must
 *  differ from cell 0's trial k). Cell 0 keeps the base seed so a
 *  one-cell sweep is identical to running the spec directly. */
std::uint64_t
deriveCellSeed(std::uint64_t base, std::size_t cell)
{
    if (cell == 0)
        return base;
    return splitmix64(base ^ splitmix64(
        static_cast<std::uint64_t>(cell) ^ 0x73776565702d6331ULL));
}

/** Shortest exact-enough rendering for axis labels ("d=3", not
 *  "d=3.000000"). */
std::string
axisValueString(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

std::string
cellLabel(const SweepSpec &spec, const std::string &channel,
          MessagePattern pattern,
          const std::vector<std::size_t> &axis_pos)
{
    if (!spec.label.empty())
        return spec.label;
    std::string label;
    const auto append = [&label](const std::string &part) {
        if (!label.empty())
            label += " ";
        label += part;
    };
    if (spec.channels.size() > 1)
        append(channel);
    if (spec.patterns.size() > 1)
        append(toString(pattern));
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        append(spec.axes[a].key + "=" +
               axisValueString(spec.axes[a].values[axis_pos[a]]));
    }
    return label.empty() ? channel : label;
}

/** Is @p key a knob applyChannelOverride()/applyModelOverride()/
 *  applyEnvOverride()/applyDefenseOverride() will accept? Probed
 *  against scratch targets. */
bool
knownOverrideKey(const std::string &key)
{
    if (isModelOverrideKey(key)) {
        CpuModel scratch = gold6226();
        return applyModelOverride(scratch, key, 1.0);
    }
    if (isEnvOverrideKey(key)) {
        EnvironmentSpec scratch;
        return applyEnvOverride(scratch, key, 1.0);
    }
    if (isDefenseOverrideKey(key)) {
        DefenseSpec scratch;
        return applyDefenseOverride(scratch, key, 1.0);
    }
    ChannelConfig cfg;
    ChannelExtras extras;
    return applyChannelOverride(cfg, extras, key, 1.0);
}

/** Odometer increment over the axis index vector (last axis fastest).
 *  @return false once the odometer wraps past the end. */
bool
advance(const SweepSpec &spec, std::vector<std::size_t> &axis_pos)
{
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
        if (++axis_pos[a] < spec.axes[a].values.size())
            return true;
        axis_pos[a] = 0;
    }
    return false;
}

} // namespace

std::string
cellKeyOf(const ExperimentSpec &spec)
{
    std::string key;
    const auto append = [&key](const std::string &part) {
        key += part;
        key += '\x1f';
    };
    append(spec.label);
    append(spec.channel);
    append(spec.cpu);
    append(toString(spec.pattern));
    append(std::to_string(spec.messageBits));
    append(std::to_string(spec.preambleBits));
    for (const auto &[name, value] : spec.overrides) {
        append(name);
        append(jsonNumber(value));
    }
    return key;
}

std::size_t
sweepCellCount(const SweepSpec &spec)
{
    std::size_t cells = spec.channels.size() * spec.cpus.size() *
        spec.patterns.size();
    for (const SweepAxis &axis : spec.axes)
        cells *= axis.values.size();
    return cells;
}

std::string
validateSweepSpec(const SweepSpec &spec)
{
    if (spec.channels.empty())
        return "sweep needs at least one channel";
    if (spec.cpus.empty())
        return "sweep needs at least one CPU model";
    if (spec.patterns.empty())
        return "sweep needs at least one message pattern";
    if (spec.trials < 1)
        return "sweep needs at least one trial";
    if (spec.messageBits == 0)
        return "message must have at least one bit";
    for (const std::string &channel : spec.channels) {
        if (!hasChannel(channel))
            return "unknown channel \"" + channel + "\"";
    }
    for (const std::string &cpu : spec.cpus) {
        if (findCpuModel(cpu) == nullptr)
            return "unknown CPU model \"" + cpu + "\"";
    }
    for (const auto &[key, value] : spec.baseOverrides) {
        (void)value;
        if (!knownOverrideKey(key))
            return "unknown override key \"" + key + "\"";
    }
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
        const SweepAxis &axis = spec.axes[a];
        if (axis.values.empty())
            return "sweep axis \"" + axis.key + "\" has no values";
        if (!knownOverrideKey(axis.key))
            return "unknown sweep axis key \"" + axis.key + "\"";
        if (spec.baseOverrides.count(axis.key) != 0) {
            return "key \"" + axis.key +
                "\" is both swept and set as a fixed override";
        }
        for (std::size_t b = 0; b < a; ++b) {
            if (spec.axes[b].key == axis.key)
                return "duplicate sweep axis \"" + axis.key + "\"";
        }
    }
    // Every dimension is >= 1 here; stopping at the bound keeps the
    // running product from overflowing.
    std::vector<std::size_t> dims = {
        spec.channels.size(), spec.cpus.size(), spec.patterns.size(),
        static_cast<std::size_t>(spec.trials)};
    for (const SweepAxis &axis : spec.axes)
        dims.push_back(axis.values.size());
    std::size_t total = 1;
    for (const std::size_t dim : dims) {
        if (dim > kMaxSweepTrials / total) {
            return "sweep grid has more than " +
                std::to_string(kMaxSweepTrials) + " trials";
        }
        total *= dim;
    }
    return "";
}

std::string
validateSweepSpecValues(const SweepSpec &spec)
{
    ExperimentSpec probe;
    probe.messageBits = spec.messageBits;
    probe.preambleBits = spec.preambleBits;
    for (const std::string &channel : spec.channels) {
        probe.channel = channel;
        for (const std::string &cpu : spec.cpus) {
            probe.cpu = cpu;
            probe.overrides = spec.baseOverrides;
            std::string error = validateSpec(probe);
            if (!error.empty()) {
                return "invalid setting for channel " + channel +
                    " on " + cpu + ": " + error;
            }
            for (const SweepAxis &axis : spec.axes) {
                for (double value : axis.values) {
                    probe.overrides = spec.baseOverrides;
                    probe.overrides[axis.key] = value;
                    error = validateSpec(probe);
                    if (!error.empty()) {
                        return "invalid sweep value " + axis.key +
                            "=" + axisValueString(value) +
                            " for channel " + channel + " on " + cpu +
                            ": " + error;
                    }
                }
            }
        }
    }
    return "";
}

std::string
validateSweepShard(const SweepSpec &spec, const SweepShard &shard)
{
    if (shard.count < 1)
        return "shard count must be >= 1";
    if (shard.index < 0 || shard.index >= shard.count) {
        return "shard index " + std::to_string(shard.index) +
            " out of range [0, " + std::to_string(shard.count) + ")";
    }
    if (static_cast<std::size_t>(shard.count) > sweepCellCount(spec) &&
        sweepCellCount(spec) > 0) {
        return "more shards (" + std::to_string(shard.count) +
            ") than sweep cells (" +
            std::to_string(sweepCellCount(spec)) + ")";
    }
    return "";
}

std::vector<ExperimentSpec>
expandSweep(const SweepSpec &spec, const SweepShard &shard)
{
    std::string error = validateSweepSpec(spec);
    if (error.empty())
        error = validateSweepShard(spec, shard);
    if (!error.empty())
        lf_fatal("invalid sweep: %s", error.c_str());

    std::vector<ExperimentSpec> batch;
    std::size_t cell = 0;
    for (const std::string &channel : spec.channels) {
        for (const std::string &cpu : spec.cpus) {
            for (const MessagePattern pattern : spec.patterns) {
                std::vector<std::size_t> axis_pos(spec.axes.size(), 0);
                do {
                    const std::size_t this_cell = cell++;
                    if (static_cast<int>(this_cell %
                            static_cast<std::size_t>(shard.count)) !=
                        shard.index) {
                        continue;
                    }
                    ExperimentSpec cell_spec;
                    cell_spec.channel = channel;
                    cell_spec.cpu = cpu;
                    cell_spec.pattern = pattern;
                    cell_spec.messageBits = spec.messageBits;
                    cell_spec.preambleBits = spec.preambleBits;
                    cell_spec.label =
                        cellLabel(spec, channel, pattern, axis_pos);
                    cell_spec.overrides = spec.baseOverrides;
                    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
                        cell_spec.overrides[spec.axes[a].key] =
                            spec.axes[a].values[axis_pos[a]];
                    }
                    cell_spec.seed =
                        deriveCellSeed(spec.seed, this_cell);
                    for (ExperimentSpec &trial :
                         expandTrials(cell_spec, spec.trials)) {
                        batch.push_back(std::move(trial));
                    }
                } while (advance(spec, axis_pos));
            }
        }
    }
    return batch;
}

std::vector<ExperimentResult>
runSweep(const SweepSpec &spec, const ExperimentRunner &runner,
         const SweepShard &shard)
{
    return runner.run(expandSweep(spec, shard));
}

void
SweepAccumulator::add(const ExperimentResult &res)
{
    // Cells are looked up by key but reported in first-seen order.
    const auto [it, inserted] =
        index_.try_emplace(cellKeyOf(res.spec), cells_.size());
    if (inserted) {
        SweepCellSummary cell;
        cell.label = res.spec.label.empty() ? res.spec.channel
                                            : res.spec.label;
        cell.channel = res.spec.channel;
        cell.cpu = res.spec.cpu;
        cell.pattern = toString(res.spec.pattern);
        cell.overrides = res.spec.overrides;
        cells_.push_back(std::move(cell));
    }
    ++count_;
    SweepCellSummary &cell = cells_[it->second];
    ++cell.trials;
    if (res.skipped) {
        ++cell.skippedTrials;
        return;
    }
    if (!res.ok) {
        ++cell.failedTrials;
        return;
    }
    ++cell.okTrials;
    const double err = res.result.errorRate;
    const double kbps = res.result.transmissionKbps;
    cell.errorRate.add(err);
    cell.transmissionKbps.add(kbps);
    cell.seconds.add(res.result.seconds);
    cell.effectiveKbps.add(kbps * (1.0 - err));
    cell.capacityKbps.add(kbps * bscCapacity(err));
}

void
SweepAccumulator::clear()
{
    index_.clear();
    cells_.clear();
    count_ = 0;
}

std::vector<SweepCellSummary>
aggregateSweep(const std::vector<ExperimentResult> &results)
{
    SweepAccumulator accumulator;
    for (const ExperimentResult &res : results)
        accumulator.add(res);
    return accumulator.cells();
}

SweepSummarySink::SweepSummarySink(std::string title)
    : title_(std::move(title))
{
}

void
SweepSummarySink::writeHeader(std::ostream &os)
{
    (void)os;
    accumulator_.clear();
}

void
SweepSummarySink::writeRow(const ExperimentResult &res,
                           std::ostream &os)
{
    (void)os; // Rendered in writeFooter(); state is O(cells).
    accumulator_.add(res);
}

void
SweepSummarySink::writeFooter(std::ostream &os)
{
    TextTable table(title_.empty() ? "Sweep summary" : title_);
    table.setHeader({"Label", "Channel", "CPU", "Pattern", "ok/n",
                     "Err mean", "Err sd", "Rate mean (Kbps)",
                     "Rate sd", "Eff. rate", "Capacity (Kbps)"});
    for (const SweepCellSummary &cell : accumulator_.cells()) {
        std::string err_mean = "-";
        std::string err_sd = "-";
        std::string rate_mean = "-";
        std::string rate_sd = "-";
        std::string effective = "-";
        std::string capacity = "-";
        if (cell.okTrials > 0) {
            err_mean = formatPercent(cell.errorRate.mean());
            err_sd = formatPercent(cell.errorRate.stddev());
            rate_mean = formatKbps(cell.transmissionKbps.mean());
            rate_sd = formatKbps(cell.transmissionKbps.stddev());
            effective = formatKbps(cell.effectiveKbps.mean());
            capacity = formatKbps(cell.capacityKbps.mean());
        }
        table.addRow({cell.label, cell.channel, cell.cpu, cell.pattern,
                      std::to_string(cell.okTrials) + "/" +
                          std::to_string(cell.trials),
                      err_mean, err_sd, rate_mean, rate_sd, effective,
                      capacity});
    }
    os << table.render();
}

} // namespace lf
