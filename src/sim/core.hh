/**
 * @file
 * Core: one simulated physical core (frontend + backend + 2 hardware
 * threads) plus the measurement facilities the attacks use — a noisy
 * TSC and a simulated RAPL energy counter.
 *
 * The Core also owns the SMT partition policy: the DSB/LSD become
 * partitioned exactly while *both* hardware threads have a program
 * bound (and the model has SMT enabled). Binding/unbinding a sender
 * program therefore toggles partitioning — the observable the MT
 * attacks encode into.
 */

#ifndef LF_SIM_CORE_HH
#define LF_SIM_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "backend/backend.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "frontend/engine.hh"
#include "frontend/prepared.hh"
#include "power/energy_model.hh"
#include "power/rapl.hh"
#include "sim/cpu_model.hh"

namespace lf {

class Core
{
  public:
    explicit Core(const CpuModel &model, std::uint64_t seed = 1);

    /**
     * Reinitialize in place to exactly the state of a freshly
     * constructed Core(model, seed), reusing the cache-line/IDQ
     * allocations of the previous trial. This is the per-worker
     * core-reuse fast path of the streaming ExperimentRunner: trial
     * results are bit-identical whether a Core is reset or rebuilt.
     * Any Defense armed on this core must be torn down first (its
     * destructor uninstalls the domain-switch hook).
     */
    void reset(const CpuModel &model, std::uint64_t seed);

    const CpuModel &model() const { return model_; }
    std::uint64_t seed() const { return seed_; }
    FrontendEngine &frontend() { return engine_; }
    const FrontendEngine &frontend() const { return engine_; }
    const Backend &backend() const { return backend_; }
    Rng &rng() { return rng_; }

    /** @name Thread control (updates SMT partitioning) */
    /// @{
    /**
     * Bind @p program to @p tid. When @p table is non-null it is the
     * program's shared immutable chunk decode (a PreparedChain's) and
     * the engine skips re-decoding; otherwise the engine resolves one
     * itself (see FrontendEngine::setProgram). Results are identical
     * either way.
     */
    void setProgram(ThreadId tid, const Program *program,
                    const ChunkTable *table = nullptr);
    /** Bind a prepared workload: program plus pre-built decode. */
    void setProgram(ThreadId tid, const PreparedChain &prepared);
    void clearProgram(ThreadId tid);

    /**
     * Static-partition mitigation (src/defense): pin the DSB in
     * partitioned mode regardless of how many threads have programs
     * bound, so binding/unbinding a sibling never repartitions. A
     * no-op on SMT-disabled models.
     */
    void setStaticPartition(bool on);
    bool staticPartition() const { return staticPartition_; }

    /**
     * Mitigation hook (src/defense): every setProgram() is a domain
     * switch — a new protection domain is scheduled onto the thread —
     * and the hook runs before the bind, where an OS-level
     * flush-on-switch mitigation acts. Null (the default) disables
     * the hook.
     */
    void setDomainSwitchHook(std::function<void(Core &)> hook);
    /// @}

    /** @name Simulation advance */
    /// @{
    void tick();
    void runCycles(Cycles cycles);

    /**
     * Run the whole core until thread @p tid retires @p insts more
     * instructions (the sibling thread co-executes). Returns the
     * elapsed cycles. Throws TrialError if the thread halts first or
     * the deadlock guard elapses first: @p max_cycles when non-zero,
     * otherwise the model's CpuModel::deadlockKcycles knob
     * ("model.deadlock_kcycles").
     */
    Cycles runUntilRetired(ThreadId tid, std::uint64_t insts,
                           Cycles max_cycles = 0);
    /// @}

    Cycles cycle() const { return engine_.cycle(); }

    /** @name Timing measurement (the attacker's rdtscp) */
    /// @{
    /**
     * Timed run: like runUntilRetired but returns the *measured*
     * duration in cycles — true cycles plus the TSC read overhead,
     * Gaussian jitter, and occasional OS-noise spikes of the CPU
     * model. This is what attack receivers observe.
     */
    double timedRun(ThreadId tid, std::uint64_t insts);

    /** Apply the measurement noise model to a true cycle count. */
    double noisyMeasurement(double true_cycles);

    /** Seconds corresponding to @p cycles on this model. */
    double secondsOf(double cycles) const;
    /// @}

    /** @name Energy / RAPL */
    /// @{
    const EnergyModel &energyModel() const { return energyModel_; }

    /**
     * Read the simulated RAPL package-energy counter (microjoules).
     * Integrates the energy of both threads' activity since the last
     * read into the counter first.
     */
    MicroJoules readRapl();
    /// @}

    /** @name SGX (used by the sgx module) */
    /// @{
    /** Charge an enclave entry/exit: advances time and flushes the
     *  thread's pipeline-local frontend state. */
    void enclaveTransition(ThreadId tid);
    /// @}

    /** Retired instructions of @p tid so far. */
    std::uint64_t retiredInsts(ThreadId tid) const;

    /** Counter snapshot for @p tid. */
    const PerfCounters &counters(ThreadId tid) const;

    /** @name Warm-state snapshot (sim/snapshot.hh)
     * Everything deterministic about the core after a calibration
     * preamble: the frontend/backend images, the RAPL counter's
     * energy state, and the SMT partition pin. Deliberately excluded:
     * model_ and seed_ (identity — the snapshot key covers the model,
     * and seeds differ per trial by design), both Rngs (a snapshot is
     * only valid when calibration drew nothing, so RNG state needs no
     * restoring), and the domain-switch hook (it belongs to whichever
     * Defense is armed on this core right now).
     */
    /// @{
    struct WarmState
    {
        FrontendEngine::SavedState engine;
        Backend::SavedState backend;
        RaplCounter::SavedState rapl;
        bool staticPartition;
        PerfCounters raplSnapshot[FrontendEngine::kNumThreads];
        Cycles raplSyncCycle;
    };

    WarmState saveWarmState() const;

    /**
     * Overwrite this core's mutable simulation state with @p s.
     * Precondition: this core was reset with the same resolved model
     * as the snapshot source (the snapshot key guarantees it), and
     * any armed Defense has already run arm() — restore then replays
     * the post-calibration state on top.
     */
    void restoreWarmState(const WarmState &s);
    /// @}

    /** @name Steady-state period skipping (sim/period_skip.hh)
     * Every component lists its state fields once (visitState()) as
     * exact (compared in the canonical key), monotone (extrapolated
     * across skipped periods, never compared), an LRU stamp (its rank
     * in the set is the key form), a deadline (the key holds it
     * relative to its clock) or a ring position (monotone modulo the
     * ring). These calls are the driver's whole view of the core.
     */
    /// @{
    /** False while a domain-switch hook is installed: the hook's
     *  owner keeps state (a switch count) the core cannot list. */
    bool periodSkipAllowed() const { return !domainSwitchHook_; }

    /** Overwrite @p out with the canonical key of the current state:
     *  equal keys mean identical behaviour from here on. */
    void canonicalKey(std::vector<std::uint64_t> &out) const;

    /** Hash of the canonical key, computed without building it. */
    std::uint64_t canonicalHash() const;

    /** True when the current canonical key equals @p key, checked
     *  without building it. */
    bool hasCanonicalKey(const std::vector<std::uint64_t> &key) const;

    /** Overwrite @p out with the raw values of every monotone field
     *  (the `before` of advancePeriods()). */
    void monotoneState(std::vector<std::uint64_t> &out) const;

    /**
     * Jump @p periods whole periods ahead. Precondition: the core ran
     * exactly one period since monotoneState() wrote @p before, and
     * its canonical key is the same at both ends. Every monotone
     * field x then becomes x + periods * (x - before).
     */
    void advancePeriods(const std::vector<std::uint64_t> &before,
                        std::uint64_t periods);

    /** Every state field, raw (stale ring bytes excepted): equal
     *  images mean field-for-field equal cores. Used by tests. */
    std::vector<std::uint64_t> stateImage() const;

    /** Skips taken since reset() and the cycles they advanced. Not
     *  machine state: outside every image and snapshot. */
    std::uint64_t periodSkips() const { return periodSkips_; }
    Cycles skippedPeriodCycles() const { return skippedPeriodCycles_; }
    /// @}

  private:
    template <class V>
    void visitState(V &v);
    void syncRaplEnergy();
    void refreshPartitionState();

    bool staticPartition_ = false;
    std::function<void(Core &)> domainSwitchHook_;
    CpuModel model_;
    std::uint64_t seed_;
    FrontendEngine engine_;
    Backend backend_;
    Rng rng_;
    EnergyModel energyModel_;
    RaplCounter rapl_;

    /** Counter snapshots at the last RAPL energy sync. */
    PerfCounters raplSnapshot_[FrontendEngine::kNumThreads];
    Cycles raplSyncCycle_ = 0;

    std::uint64_t periodSkips_ = 0;
    Cycles skippedPeriodCycles_ = 0;
};

} // namespace lf

#endif // LF_SIM_CORE_HH
