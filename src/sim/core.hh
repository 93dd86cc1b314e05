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

    /**
     * Flush-on-switch mitigation (src/defense): from now on every
     * setProgram() is a domain switch — a new protection domain is
     * scheduled onto the thread — and every @p quantum-th one flushes
     * the DSB before the bind, where an OS-level mitigation acts.
     * 0 (the default) disables it. The switch phase restarts at 0.
     */
    void setFlushSwitchQuantum(std::uint32_t quantum);
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

    /**
     * Run until thread @p tid has retired @p target instructions in
     * all or @p cycles cycles have passed, whichever comes first, and
     * return the cycles run. Never throws: a halted thread just lets
     * the cycles run out. Splitting a runCycles() stretch this way
     * leaves the core exactly as one call would.
     */
    Cycles runCyclesUntilRetired(ThreadId tid, std::uint64_t target,
                                 Cycles cycles);
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
    /** Charge an enclave entry (model sgx.entryCycles) or exit
     *  (sgx.exitCycles), each plus one draw of the entry/exit jitter:
     *  advances time and flushes the thread's pipeline-local frontend
     *  state. */
    void enclaveEntry(ThreadId tid);
    void enclaveExit(ThreadId tid);
    /// @}

    /** Retired instructions of @p tid so far. */
    std::uint64_t retiredInsts(ThreadId tid) const;

    /** Counter snapshot for @p tid. */
    const PerfCounters &counters(ThreadId tid) const;

    /** @name Machine state: period skipping and warm snapshots
     * Every component lists its state fields once (visitState()) as
     * exact (compared in the canonical key), monotone (extrapolated
     * across skipped periods, never compared), an LRU stamp (its rank
     * in the set is the key form), a deadline (the key holds it
     * relative to its clock) or a ring position (monotone modulo the
     * ring). These calls are the period-skip driver's
     * (sim/period_skip.hh) whole view of the core; the raw image pair
     * is also the warm snapshot's (sim/snapshot.hh).
     */
    /// @{
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
     *  images mean field-for-field equal cores. The warm-snapshot
     *  layer (sim/snapshot.hh) stores it. Left out: model_ and seed_
     *  (identity) and both Rngs (a snapshot is only taken when
     *  nothing drew). */
    std::vector<std::uint64_t> stateImage() const;

    /**
     * Overwrite every state field with its value in @p image, a
     * stateImage() of another core. Precondition: this core was built
     * with the same resolved model as the image's source (fixed-size
     * arrays are not resized), and any armed Defense has already run
     * arm(). The image's program and chunk pointers must still be
     * alive (the snapshot layer pins them).
     */
    void loadStateImage(const std::vector<std::uint64_t> &image);

    /** Overwrite @p out with the raw counters and clocks: the
     *  monotone fields that are not LRU stamps, deadlines or ring
     *  positions. What a stretch of simulation adds to them depends
     *  only on the canonical key it starts from. */
    void monotoneCounters(std::vector<std::uint64_t> &out) const;

    /**
     * Put the core into the state @p key (a canonicalKey()) names,
     * with counters and clocks @p counters (a monotoneCounters() of
     * a core that reached that state). What no behaviour reads is
     * made up: LRU stamps are fresh values of the same ranks just
     * below their clock, deadlines sit at their distance from their
     * clock, ring positions stay. Afterwards canonicalKey() is @p key
     * and the core behaves exactly like the one it was taken from.
     * The slot graph (sim/slot_graph.hh) stores only keys and puts a
     * core into a recorded state this way, at any absolute time. Same
     * preconditions as loadStateImage().
     */
    void loadCanonicalKey(const std::vector<std::uint64_t> &key,
                          const std::vector<std::uint64_t> &counters);

    /** Skips taken since construction and the cycles they advanced.
     *  Not machine state: outside every image and snapshot. */
    std::uint64_t periodSkips() const { return periodSkips_; }
    Cycles skippedPeriodCycles() const { return skippedPeriodCycles_; }
    /// @}

  private:
    template <class V>
    void visitState(V &v);
    void syncRaplEnergy();
    void refreshPartitionState();
    /** enclaveEntry()/enclaveExit() at a base cost of @p cycles. */
    void enclaveTransition(ThreadId tid, Cycles cycles);

    bool staticPartition_ = false;
    /** Flush-on-switch quantum (0: off) and binds since the last
     *  flush, modulo the quantum. */
    std::uint32_t flushSwitchQuantum_ = 0;
    std::uint32_t switchPhase_ = 0;
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
