/**
 * @file
 * Simulated CPU models matching Table I of the paper.
 *
 * | Model      | uArch        | GHz | SMT | LSD | SGX |
 * |------------|--------------|-----|-----|-----|-----|
 * | Gold 6226  | Cascade Lake | 2.7 | yes | yes | no  |
 * | E-2174G    | Coffee Lake  | 3.8 | yes | no  | yes |
 * | E-2286G    | Coffee Lake  | 4.0 | yes | no  | yes |
 * | E-2288G    | Coffee Lake  | 3.7 | no* | yes | yes |
 *
 * (*) The Azure E-2288G instance the paper uses has hyper-threading
 * disabled, so no MT attacks are possible there.
 *
 * The timing-noise / measurement-overhead fields are the calibration
 * knobs of the substitution: they stand in for each machine's OS and
 * platform noise (the Gold 6226 is a busy server, the E-2288G a
 * comparatively quiet cloud instance) and determine relative channel
 * rates and error rates.
 */

#ifndef LF_SIM_CPU_MODEL_HH
#define LF_SIM_CPU_MODEL_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "frontend/params.hh"
#include "power/energy_model.hh"
#include "power/rapl.hh"

namespace lf {

/** Per-machine timing measurement noise model. */
struct TimingNoise
{
    double stddevCycles = 3.0;   //!< Gaussian jitter per measurement.
    double spikeProb = 0.005;    //!< Chance of an OS-noise spike.
    double spikeCycles = 120.0;  //!< Spike magnitude.
    Cycles tscOverhead = 30;     //!< rdtscp fencing cost per read pair.
    /** Sender/receiver phase handoff cost in the covert-channel
     *  protocols (shared-memory flag busy-wait in the real attack). */
    Cycles syncCycles = 90;
    /** Duration-proportional jitter: additional Gaussian sigma per
     *  1000 measured cycles (OS and platform interference accumulates
     *  over longer measurement windows). */
    double jitterPerKcycle = 2.0;
};

/** SGX cost model (enclaves modelled as entry/exit overheads). */
struct SgxParams
{
    bool supported = false;
    Cycles entryCycles = 3200;
    Cycles exitCycles = 3200;
    /** Gaussian jitter of every entry and every exit. */
    double entryJitterStddev = 350.0;
};

struct CpuModel
{
    std::string name;
    std::string microarchitecture;
    int cores = 1;
    int threadsPerCore = 2;
    double freqGhz = 3.0;
    bool smtEnabled = true;

    FrontendParams frontend;
    TimingNoise noise;
    SgxParams sgx;
    EnergyParams energy;
    RaplParams rapl;

    /** Deadlock guard of Core::runUntilRetired() in kilocycles
     *  ("model.deadlock_kcycles"): a run that makes no retirement
     *  progress for this long is declared stuck. Raise it for
     *  deliberately glacial machines (e.g. huge model.lcpStall
     *  sweeps); must be >= 1. */
    Cycles deadlockKcycles = 50'000;

    bool lsdEnabled() const { return frontend.lsdEnabled; }
};

/** @name The paper's four test machines */
/// @{
const CpuModel &gold6226();
const CpuModel &xeonE2174G();
const CpuModel &xeonE2286G();
const CpuModel &xeonE2288G();
/// @}

/** All four models in Table I order. */
std::vector<const CpuModel *> allCpuModels();

/** The three SMT-capable models (for MT attack tables). */
std::vector<const CpuModel *> smtCpuModels();

/** The three SGX-capable models (for Table VI). */
std::vector<const CpuModel *> sgxCpuModels();

/** Look up a model by name; fatal if unknown. */
const CpuModel &cpuModelByName(const std::string &name);

/** Look up a model by name; nullptr if unknown. */
const CpuModel *findCpuModel(const std::string &name);

/**
 * Apply one "model.<knob>=value" style override to @p model. Keys are
 * the sweepable machine knobs (see modelOverrideKeys()): clock and SMT
 * ("model.freqGhz", "model.smtEnabled"), frontend timing roots
 * ("model.dsbToMiteSwitch", "model.lsdLoopBubble", "model.lcpStall",
 * "model.lsdEnabled"), the timing-noise calibration fields
 * ("model.noiseStddevCycles", "model.spikeProb", "model.spikeCycles",
 * "model.jitterPerKcycle", "model.tscOverhead", "model.syncCycles"),
 * the deadlock guard ("model.deadlock_kcycles"),
 * SGX transition costs ("model.sgxEntryCycles", "model.sgxExitCycles",
 * "model.sgxEntryJitterStddev"), and RAPL behaviour
 * ("model.raplUpdateIntervalUs", "model.raplQuantumMicroJoules",
 * "model.raplNoiseStddevMicroJoules").
 *
 * Model knobs recalibrate the *machine*; transient interference
 * (co-runners, preemption, timer coarsening) lives in the separate
 * "env." keys of src/noise/environment.hh.
 * @return false if @p key names no known model knob.
 */
bool applyModelOverride(CpuModel &model, const std::string &key,
                        double value);

/** True when @p key is a model override (has the "model." prefix). */
bool isModelOverrideKey(const std::string &key);

/** Keys accepted by applyModelOverride(), for help text. */
std::vector<std::string> modelOverrideKeys();

} // namespace lf

#endif // LF_SIM_CPU_MODEL_HH
