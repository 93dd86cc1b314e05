/**
 * @file
 * Composable environment/interference model for covert-channel runs.
 *
 * The paper's Table III/V rates are measured on real machines with OS
 * schedulers, co-running workloads, and coarse power meters; the seed
 * simulator runs on a perfectly quiet core and only reaches realistic
 * error rates through the per-model TimingNoise calibration knobs. An
 * EnvironmentSpec makes the interference sources first-class and
 * composable instead:
 *
 *  - CorunnerSpec: a frontend-hungry co-runner that evicts DSB/L1i
 *    state between transmission slots and steals delivery slots while
 *    the receiver measures (relative window stretch + jitter, and a
 *    package-energy contribution seen by the power channels);
 *  - SchedulerSpec: OS scheduling jitter and preemptions that delay
 *    slots (wall-clock time, hence rate) and stretch the receiver's
 *    measurement window when they land mid-slot;
 *  - TimerSpec: receiver-side timer quantization and extra read noise
 *    (a coarse or fuzzed clock, the classic timer-based mitigation);
 *  - PowerMeterSpec: extra RAPL reading noise and a thermal
 *    random-walk drift on the energy observable.
 *
 * An Environment binds a spec to a deterministic RNG seeded from the
 * trial seed, so runs stay bit-reproducible at any worker-thread or
 * shard count. A spec with every activating knob at zero is *quiet*:
 * all hooks are no-ops that never draw from the RNG, which keeps the
 * zero-noise path bit-identical to the legacy no-environment path.
 *
 * Spec fields are addressable as "env."-prefixed override keys (see
 * applyEnvOverride()), mirroring the "model." CPU knobs: they ride in
 * ExperimentSpec::overrides and can be swept as axes
 * (e.g. --sweep env.corunner_intensity=0:1:0.25).
 */

#ifndef LF_NOISE_ENVIRONMENT_HH
#define LF_NOISE_ENVIRONMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace lf {

class Core;

/** Frontend-contending co-runner ("env.corunner_*" keys). All effects
 *  scale with intensity; 0 disables the source entirely. */
struct CorunnerSpec
{
    /** Contention level in [0, 1] ("env.corunner_intensity"):
     *  0 = idle machine, 1 = a fully frontend-bound neighbour. */
    double intensity = 0.0;
    /** Candidate DSB/L1i pollution insertions per slot at intensity 1
     *  ("env.corunner_evictions"); each fires with p = intensity. */
    int evictionsPerSlot = 24;
    /** Mean relative stretch of a timed window at intensity 1
     *  ("env.corunner_slowdown") — shared-frontend slot stealing. */
    double slowdownFrac = 0.03;
    /** Std-dev of the relative stretch at intensity 1
     *  ("env.corunner_jitter"). */
    double jitterFrac = 0.08;
    /** Mean extra package energy per power reading (per encode round)
     *  at intensity 1, in microjoules ("env.corunner_power_uj"). */
    double powerMeanUj = 0.5;
    /** Std-dev of the extra package energy at intensity 1
     *  ("env.corunner_power_sd_uj"). Sized against the power
     *  channels' ~0.6 uJ/round class gap so the error curve spans
     *  roughly 0-30% over intensity 0-1. */
    double powerStddevUj = 0.6;
};

/** OS scheduler jitter and preemption ("env.sched_*" keys). */
struct SchedulerSpec
{
    /** Per-slot probability of being preempted mid-measurement
     *  ("env.sched_preempt_prob"). */
    double preemptProb = 0.0;
    /** Mean preemption length in cycles ("env.sched_quantum_cycles");
     *  each preemption draws uniformly from [0.5x, 1.5x]. */
    double quantumCycles = 30000.0;
    /** Uniform [0, x) slot-start delay in cycles
     *  ("env.sched_jitter_cycles") — delays cost wall-clock time
     *  (rate) without corrupting the observation. */
    double jitterCycles = 0.0;
};

/** Receiver timer degradation ("env.timer_*" keys). */
struct TimerSpec
{
    /** Quantize cycle readings to multiples of this
     *  ("env.timer_quantum_cycles"); 0 = exact timer. */
    double quantumCycles = 0.0;
    /** Extra Gaussian read noise in cycles
     *  ("env.timer_noise_cycles"). */
    double noiseStddevCycles = 0.0;
};

/** Power-meter degradation for the RAPL observable ("env.rapl_*"). */
struct PowerMeterSpec
{
    /** Extra Gaussian noise per power reading, microjoules
     *  ("env.rapl_noise_uj"). */
    double noiseStddevUj = 0.0;
    /** Thermal drift: random-walk step per slot, microjoules
     *  ("env.rapl_drift_uj"); the accumulated walk offsets every
     *  subsequent power reading. */
    double driftStepUj = 0.0;
};

/** The full composable interference model of one run. */
struct EnvironmentSpec
{
    CorunnerSpec corunner;
    SchedulerSpec scheduler;
    TimerSpec timer;
    PowerMeterSpec power;

    /** True when every activating knob is zero: a quiet Environment's
     *  hooks are no-ops and the run is bit-identical to the legacy
     *  no-environment path. Shape knobs (evictionsPerSlot, the
     *  slowdown fractions, quantumCycles) do not activate on their
     *  own. */
    bool quiet() const;
};

/**
 * Validate magnitudes/ranges of @p spec (probabilities in [0, 1],
 * non-negative magnitudes). @return an error message or "".
 */
std::string validateEnvironmentSpec(const EnvironmentSpec &spec);

/**
 * Apply one "env.<knob>=value" override to @p spec. Keys:
 *   env.corunner_intensity, env.corunner_evictions,
 *   env.corunner_slowdown, env.corunner_jitter,
 *   env.corunner_power_uj, env.corunner_power_sd_uj,
 *   env.sched_preempt_prob, env.sched_quantum_cycles,
 *   env.sched_jitter_cycles, env.timer_quantum_cycles,
 *   env.timer_noise_cycles, env.rapl_noise_uj, env.rapl_drift_uj.
 * @return false if @p key names no known environment knob.
 */
bool applyEnvOverride(EnvironmentSpec &spec, const std::string &key,
                      double value);

/** True when @p key is an environment override ("env." prefix). */
bool isEnvOverrideKey(const std::string &key);

/** Keys accepted by applyEnvOverride(), for help text. */
std::vector<std::string> envOverrideKeys();

/** Seed of a trial's Environment RNG, derived from the trial seed.
 *  Decorrelated (distinct splitmix64 salts) from the Core noise
 *  stream and the message stream so adding an environment never
 *  reshuffles them. */
std::uint64_t deriveEnvironmentSeed(std::uint64_t trial_seed);

/**
 * An EnvironmentSpec bound to a per-trial RNG: the object channels
 * consult once per transmission slot. One Environment belongs to one
 * trial (it carries slot state: preemption flags, thermal drift);
 * construct a fresh one per trial from the trial seed.
 */
class Environment
{
  public:
    /** Bind @p spec with the RNG seeded from @p trial_seed (via
     *  deriveEnvironmentSeed()). */
    Environment(const EnvironmentSpec &spec, std::uint64_t trial_seed);

    const EnvironmentSpec &spec() const { return spec_; }
    bool quiet() const { return quiet_; }
    /** Slots started so far (diagnostics/tests). */
    std::uint64_t slots() const { return slots_; }

    /**
     * Start one transmission slot: pollute shared frontend state
     * (co-runner), delay the slot start (scheduler jitter), and maybe
     * preempt (advancing @p core's clock, wiping predictor state, and
     * arming the mid-slot window stretch). Called by
     * CovertChannel::transmit() before every transmitBit().
     */
    void beginSlot(Core &core);

    /** True when beginSlot() can touch the core or draw (co-runner
     *  pollution, scheduler jitter or preemption). Otherwise it only
     *  counts slots, and the slot graph (sim/slot_graph.hh) may
     *  replay the slot's machine work. Quiet environments: false. */
    bool slotActsOnCore() const
    {
        return !quiet_ && (spec_.corunner.intensity > 0.0 ||
                           spec_.scheduler.jitterCycles > 0.0 ||
                           spec_.scheduler.preemptProb > 0.0);
    }

    /** Degrade a timing observation (cycles): preemption stretch,
     *  co-runner slot stealing, timer noise, then quantization. */
    double perturbTiming(double cycles);

    /** Degrade a power observation (microjoules per round): co-runner
     *  energy, thermal drift, meter noise. */
    double perturbPower(double microjoules);

    /** @name Warm-state snapshot (sim/snapshot.hh)
     * The per-trial slot/drift evolution only — the spec is identity
     * (part of the snapshot key) and the RNG belongs to the trial
     * seed, never to a shared snapshot. */
    /// @{
    struct WarmState
    {
        std::uint64_t slots;
        bool preempted;
        double preemptCycles;
        double driftUj;
    };

    WarmState warmState() const
    {
        return {slots_, preempted_, preemptCycles_, driftUj_};
    }

    void loadWarmState(const WarmState &s)
    {
        slots_ = s.slots;
        preempted_ = s.preempted;
        preemptCycles_ = s.preemptCycles;
        driftUj_ = s.driftUj;
    }
    /// @}

  private:
    EnvironmentSpec spec_;
    bool quiet_ = true;
    Rng rng_;
    std::uint64_t slots_ = 0;
    bool preempted_ = false;
    double preemptCycles_ = 0.0;
    double driftUj_ = 0.0;
};

} // namespace lf

#endif // LF_NOISE_ENVIRONMENT_HH
