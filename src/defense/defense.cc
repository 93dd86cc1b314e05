#include "defense/defense.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"

namespace lf {

bool
DefenseSpec::inactive() const
{
    return flush.switchQuantum == 0 && !partition.dsb &&
        !partition.lsd && !disableDsb && !randomize.enabled &&
        smoothing.strength == 0.0 && rapl.quantumUj == 0.0 &&
        rapl.intervalScale == 1.0;
}

std::string
validateDefenseSpec(const DefenseSpec &spec)
{
    // Bounded above so an override beyond int's range, which
    // applyDefenseOverride() saturates, is an error.
    constexpr int kMaxCount = 1 << 20;
    if (spec.flush.switchQuantum < 0 ||
        spec.flush.switchQuantum > kMaxCount) {
        return "defense.flush_switch_quantum must be in [0, 2^20]";
    }
    if (spec.randomize.epochSlots < 1 ||
        spec.randomize.epochSlots > kMaxCount) {
        return "defense.randomize_epoch_slots must be in [1, 2^20]";
    }
    if (spec.smoothing.strength < 0.0 || spec.smoothing.strength > 1.0)
        return "defense.smoothing must be in [0, 1]";
    if (spec.rapl.quantumUj < 0.0)
        return "defense.rapl_quantum_uj must be >= 0";
    if (spec.rapl.intervalScale < 1.0)
        return "defense.rapl_interval_scale must be >= 1";
    return "";
}

bool
applyDefenseOverride(DefenseSpec &spec, const std::string &key,
                     double value)
{
    if (key == "defense.flush_switch_quantum")
        spec.flush.switchQuantum = clampToInt(value);
    else if (key == "defense.partition_dsb")
        spec.partition.dsb = value != 0.0;
    else if (key == "defense.partition_lsd")
        spec.partition.lsd = value != 0.0;
    else if (key == "defense.disable_dsb")
        spec.disableDsb = value != 0.0;
    else if (key == "defense.randomize_sets")
        spec.randomize.enabled = value != 0.0;
    else if (key == "defense.randomize_epoch_slots")
        spec.randomize.epochSlots = clampToInt(value);
    else if (key == "defense.smoothing")
        spec.smoothing.strength = value;
    else if (key == "defense.rapl_quantum_uj")
        spec.rapl.quantumUj = value;
    else if (key == "defense.rapl_interval_scale")
        spec.rapl.intervalScale = value;
    else
        return false;
    return true;
}

bool
isDefenseOverrideKey(const std::string &key)
{
    return key.rfind("defense.", 0) == 0;
}

std::vector<std::string>
defenseOverrideKeys()
{
    return {"defense.flush_switch_quantum", "defense.partition_dsb",
            "defense.partition_lsd", "defense.disable_dsb",
            "defense.randomize_sets", "defense.randomize_epoch_slots",
            "defense.smoothing", "defense.rapl_quantum_uj",
            "defense.rapl_interval_scale"};
}

std::uint64_t
deriveDefenseSeed(std::uint64_t trial_seed)
{
    return splitmix64(trial_seed ^ 0x646566656e736531ULL);
}

void
applyDefenseToModel(CpuModel &model, const DefenseSpec &spec)
{
    if (spec.rapl.quantumUj > 0.0) {
        model.rapl.quantumMicroJoules = std::max(
            model.rapl.quantumMicroJoules, spec.rapl.quantumUj);
    }
    if (spec.rapl.intervalScale != 1.0)
        model.rapl.updateIntervalUs *= spec.rapl.intervalScale;
}

Defense::Defense(const DefenseSpec &spec, std::uint64_t trial_seed)
    : spec_(spec), inactive_(spec.inactive()),
      rng_(deriveDefenseSeed(trial_seed))
{
    const std::string error = validateDefenseSpec(spec);
    lf_assert(error.empty(), "bad DefenseSpec: %s", error.c_str());
}

void
Defense::arm(Core &core)
{
    if (inactive_ || armed_)
        return;
    armed_ = true;
    FrontendEngine &frontend = core.frontend();
    // SMT partitioning defends against a co-resident sibling; on an
    // SMT-disabled model there is none and the knobs stay no-ops.
    if (core.model().smtEnabled) {
        if (spec_.partition.dsb)
            core.setStaticPartition(true);
        if (spec_.partition.lsd)
            frontend.setLsdStaticPartition(true);
    }
    if (spec_.disableDsb)
        frontend.setDsbEnabled(false);
    core.setFlushSwitchQuantum(
        static_cast<std::uint32_t>(spec_.flush.switchQuantum));
}

void
Defense::beginSlot(Core &core)
{
    if (inactive_)
        return;
    ++slots_;
    const RandomizeDefenseSpec &rand = spec_.randomize;
    if (rand.enabled &&
        (slots_ - 1) % static_cast<std::uint64_t>(rand.epochSlots) ==
            0) {
        // New epoch: a fresh index key. Lines whose keyed index moved
        // are invalidated by the DSB itself.
        core.frontend().dsb().setIndexSalt(rng_.next());
    }
}

double
Defense::padObservable(double value)
{
    if (spec_.smoothing.strength <= 0.0)
        return value;
    // Pad toward the worst case seen so far: a non-affine compression
    // from below that genuinely merges the classes (a linear blend
    // would scale signal and noise alike and leave separability
    // untouched).
    if (!haveWorst_ || value > worstObservable_) {
        worstObservable_ = value;
        haveWorst_ = true;
    }
    return value +
        spec_.smoothing.strength * (worstObservable_ - value);
}

double
Defense::filterTiming(double cycles)
{
    if (inactive_)
        return cycles;
    return padObservable(cycles);
}

double
Defense::filterPower(double microjoules)
{
    if (inactive_)
        return microjoules;
    return padObservable(microjoules);
}

double
Defense::filterRate(double rate)
{
    if (inactive_ || spec_.smoothing.strength <= 0.0)
        return rate;
    // For a rate observable the worst case is the running minimum:
    // constant-rate delivery slows the machine down, never up.
    if (!haveWorstRate_ || rate < worstRate_) {
        worstRate_ = rate;
        haveWorstRate_ = true;
    }
    return rate - spec_.smoothing.strength * (rate - worstRate_);
}

} // namespace lf
