#include "noise/environment.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/core.hh"

namespace lf {

namespace {

/** Co-runner code region: far above the channels' receiver/sender
 *  bases so pollution lines never tag-alias a channel line, while
 *  still covering every DSB/L1i set through the low address bits. */
constexpr Addr kCorunnerBase = 0xC0000000;

/** Pollution address span: 1024 chunk-aligned slots cover all 32 DSB
 *  sets with 32 distinct tags each. */
constexpr std::uint64_t kCorunnerSlots = 1024;

} // namespace

bool
EnvironmentSpec::quiet() const
{
    return corunner.intensity == 0.0 && scheduler.preemptProb == 0.0 &&
        scheduler.jitterCycles == 0.0 && timer.quantumCycles == 0.0 &&
        timer.noiseStddevCycles == 0.0 && power.noiseStddevUj == 0.0 &&
        power.driftStepUj == 0.0;
}

std::string
validateEnvironmentSpec(const EnvironmentSpec &spec)
{
    if (spec.corunner.intensity < 0.0 || spec.corunner.intensity > 1.0)
        return "env.corunner_intensity must be in [0, 1]";
    if (spec.scheduler.preemptProb < 0.0 ||
        spec.scheduler.preemptProb > 1.0) {
        return "env.sched_preempt_prob must be in [0, 1]";
    }
    // Bounded above so an override beyond int's range, which
    // applyEnvOverride() saturates, is an error.
    if (spec.corunner.evictionsPerSlot < 0 ||
        spec.corunner.evictionsPerSlot > (1 << 20)) {
        return "env.corunner_evictions must be in [0, 2^20]";
    }
    if (spec.corunner.slowdownFrac < 0.0 ||
        spec.corunner.jitterFrac < 0.0 ||
        spec.corunner.powerMeanUj < 0.0 ||
        spec.corunner.powerStddevUj < 0.0) {
        return "env.corunner_* magnitudes must be >= 0";
    }
    if (spec.scheduler.quantumCycles < 0.0 ||
        spec.scheduler.jitterCycles < 0.0) {
        return "env.sched_* cycle counts must be >= 0";
    }
    if (spec.timer.quantumCycles < 0.0 ||
        spec.timer.noiseStddevCycles < 0.0) {
        return "env.timer_* magnitudes must be >= 0";
    }
    if (spec.power.noiseStddevUj < 0.0 || spec.power.driftStepUj < 0.0)
        return "env.rapl_* magnitudes must be >= 0";
    return "";
}

bool
applyEnvOverride(EnvironmentSpec &spec, const std::string &key,
                 double value)
{
    if (key == "env.corunner_intensity")
        spec.corunner.intensity = value;
    else if (key == "env.corunner_evictions")
        spec.corunner.evictionsPerSlot = clampToInt(value);
    else if (key == "env.corunner_slowdown")
        spec.corunner.slowdownFrac = value;
    else if (key == "env.corunner_jitter")
        spec.corunner.jitterFrac = value;
    else if (key == "env.corunner_power_uj")
        spec.corunner.powerMeanUj = value;
    else if (key == "env.corunner_power_sd_uj")
        spec.corunner.powerStddevUj = value;
    else if (key == "env.sched_preempt_prob")
        spec.scheduler.preemptProb = value;
    else if (key == "env.sched_quantum_cycles")
        spec.scheduler.quantumCycles = value;
    else if (key == "env.sched_jitter_cycles")
        spec.scheduler.jitterCycles = value;
    else if (key == "env.timer_quantum_cycles")
        spec.timer.quantumCycles = value;
    else if (key == "env.timer_noise_cycles")
        spec.timer.noiseStddevCycles = value;
    else if (key == "env.rapl_noise_uj")
        spec.power.noiseStddevUj = value;
    else if (key == "env.rapl_drift_uj")
        spec.power.driftStepUj = value;
    else
        return false;
    return true;
}

bool
isEnvOverrideKey(const std::string &key)
{
    return key.rfind("env.", 0) == 0;
}

std::vector<std::string>
envOverrideKeys()
{
    return {"env.corunner_intensity", "env.corunner_evictions",
            "env.corunner_slowdown", "env.corunner_jitter",
            "env.corunner_power_uj", "env.corunner_power_sd_uj",
            "env.sched_preempt_prob", "env.sched_quantum_cycles",
            "env.sched_jitter_cycles", "env.timer_quantum_cycles",
            "env.timer_noise_cycles", "env.rapl_noise_uj",
            "env.rapl_drift_uj"};
}

std::uint64_t
deriveEnvironmentSeed(std::uint64_t trial_seed)
{
    return splitmix64(trial_seed ^ 0x656e7669726f6e31ULL);
}

Environment::Environment(const EnvironmentSpec &spec,
                         std::uint64_t trial_seed)
    : spec_(spec), quiet_(spec.quiet()),
      rng_(deriveEnvironmentSeed(trial_seed))
{
    const std::string error = validateEnvironmentSpec(spec);
    lf_assert(error.empty(), "bad EnvironmentSpec: %s", error.c_str());
}

void
Environment::beginSlot(Core &core)
{
    if (quiet_)
        return;
    ++slots_;
    preempted_ = false;

    FrontendEngine &frontend = core.frontend();
    const CorunnerSpec &co = spec_.corunner;
    if (co.intensity > 0.0) {
        // The co-runner's own code ran between our slots: its decoded
        // lines land in the shared DSB/L1i, evicting ours. Insertion
        // count is Binomial(evictionsPerSlot, intensity), so pressure
        // grows monotonically with intensity.
        for (int i = 0; i < co.evictionsPerSlot; ++i) {
            if (!rng_.chance(co.intensity))
                continue;
            const Addr slot =
                rng_.uniformInt(0, kCorunnerSlots - 1);
            frontend.dsb().insert(0, kCorunnerBase + 32 * slot, 4);
            frontend.l1i().access(
                kCorunnerBase +
                64 * rng_.uniformInt(0, kCorunnerSlots - 1));
        }
    }

    const SchedulerSpec &sched = spec_.scheduler;
    if (sched.jitterCycles > 0.0) {
        // Slot-start delay: costs wall-clock time (rate), not
        // decoding accuracy.
        core.runCycles(static_cast<Cycles>(
            rng_.uniform(0.0, sched.jitterCycles)));
    }
    if (sched.preemptProb > 0.0 && rng_.chance(sched.preemptProb)) {
        // Preemption: the receiver loses the CPU mid-slot. The clock
        // advances, predictor state is wiped (another process ran),
        // and the armed stretch lands on this slot's observation.
        preempted_ = true;
        preemptCycles_ =
            sched.quantumCycles * rng_.uniform(0.5, 1.5);
        core.runCycles(static_cast<Cycles>(preemptCycles_));
        frontend.bpu().reset();
    }
}

double
Environment::perturbTiming(double cycles)
{
    if (quiet_)
        return cycles;
    double out = cycles;
    if (preempted_) {
        out += preemptCycles_;
        preempted_ = false;
    }
    const CorunnerSpec &co = spec_.corunner;
    if (co.intensity > 0.0) {
        // Shared-frontend slot stealing stretches the measured window
        // proportionally to its length.
        double stretch = rng_.gaussian(co.slowdownFrac * co.intensity,
                                       co.jitterFrac * co.intensity);
        if (stretch < 0.0)
            stretch = 0.0;
        out += cycles * stretch;
    }
    const TimerSpec &timer = spec_.timer;
    if (timer.noiseStddevCycles > 0.0)
        out += rng_.gaussian(0.0, timer.noiseStddevCycles);
    if (timer.quantumCycles > 0.0)
        out = std::floor(out / timer.quantumCycles) *
            timer.quantumCycles;
    return out < 0.0 ? 0.0 : out;
}

double
Environment::perturbPower(double microjoules)
{
    if (quiet_)
        return microjoules;
    preempted_ = false; // preemption stretch is a timing-only effect
    double out = microjoules;
    const CorunnerSpec &co = spec_.corunner;
    if (co.intensity > 0.0) {
        out += rng_.gaussian(co.powerMeanUj * co.intensity,
                             co.powerStddevUj * co.intensity);
    }
    const PowerMeterSpec &power = spec_.power;
    if (power.driftStepUj > 0.0) {
        driftUj_ += rng_.gaussian(0.0, power.driftStepUj);
        out += driftUj_;
    }
    if (power.noiseStddevUj > 0.0)
        out += rng_.gaussian(0.0, power.noiseStddevUj);
    return out < 0.0 ? 0.0 : out;
}

} // namespace lf
