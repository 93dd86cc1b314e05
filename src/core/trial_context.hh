/**
 * @file
 * TrialContext: everything one covert-channel trial runs against,
 * bound together — the resolved (defense-folded) CpuModel, the
 * simulated Core, the Environment (src/noise), the Defense
 * (src/defense), the resolved ChannelConfig/ChannelExtras, and a
 * general-purpose trial RNG.
 * Channels transmit through one path, transmit(message,
 * TrialContext&), and an ExperimentSpec resolves into a context
 * through one path, resolveTrial() in src/run/experiment.hh.
 *
 * A TrialContext is rebindable: bind() tears the previous trial down
 * (defense hooks first, then the Core) and builds every facet afresh
 * for the next one. What outlives bind() is the slot graph of the
 * sweep cell its trials belong to (sim/slot_graph.hh): once
 * resolveTrial() names the cell, the graph survives while the cell
 * stays the same and starts empty when it changes, so a worker of the
 * streaming ExperimentRunner keeps one context across its share of a
 * batch and holds at most one cell's graph.
 */

#ifndef LF_CORE_TRIAL_CONTEXT_HH
#define LF_CORE_TRIAL_CONTEXT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.hh"
#include "core/channel_registry.hh"
#include "defense/defense.hh"
#include "noise/environment.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"
#include "sim/slot_graph.hh"

namespace lf {

/** Seed of a trial's general-purpose RNG (TrialContext::rng()),
 *  derived from the trial seed with its own salt — decorrelated from
 *  the Core, message, environment, and defense streams. */
std::uint64_t deriveTrialRngSeed(std::uint64_t trial_seed);

class TrialContext
{
  public:
    /** An unbound context: bind() (or run/experiment's
     *  resolveTrial()) must populate it before use. */
    TrialContext() = default;

    /**
     * Bind directly for hand-built channels (tests, examples): the
     * named model, a quiet-by-default environment, an
     * inactive-by-default defense, and type-default config/extras
     * (not any channel's registry defaults — no channel is named
     * here). Construct channels against core() with an explicit
     * ChannelConfig; the context supplies the execution
     * surroundings. Registry-resolved config comes from
     * resolveTrial() + makeChannel(name, ctx).
     */
    explicit TrialContext(const CpuModel &model, std::uint64_t seed = 1,
                          const EnvironmentSpec &env = {},
                          const DefenseSpec &defense = {});

    /** One context = one live Core that channels bind to by
     *  reference; copying would silently split them. */
    TrialContext(const TrialContext &) = delete;
    TrialContext &operator=(const TrialContext &) = delete;

    /**
     * (Re)bind every facet of the context for one trial. The
     * defense-model mitigations of @p defense are folded into the
     * stored model copy (applyDefenseToModel()) before the Core is
     * built, mirroring the seed pipeline. A second bind() uninstalls
     * the previous defense's hooks, destroys the previous Core and
     * constructs a new one — the same state as a fresh context.
     */
    void bind(const CpuModel &model, std::uint64_t seed,
              const ChannelConfig &config, const ChannelExtras &extras,
              const EnvironmentSpec &env, const DefenseSpec &defense,
              int preamble_bits = -1);

    bool bound() const { return core_ != nullptr; }

    /** The trial's resolved, defense-folded CpuModel. */
    const CpuModel &model() const { return model_; }
    std::uint64_t seed() const { return seed_; }

    /** @name Live trial state (bound contexts only) */
    /// @{
    Core &core();
    Environment &environment() { return env_; }
    Defense &defense();
    /// @}

    /** Resolved channel knobs (registry defaults + spec overrides). */
    const ChannelConfig &config() const { return config_; }
    const ChannelExtras &extras() const { return extras_; }

    /** Calibration-preamble override; < 0 defers to the channel's
     *  ChannelConfig::preambleBits. */
    int preambleBits() const { return preambleBits_; }

    /** General-purpose per-trial RNG (harness-side randomness that
     *  must not perturb the core/message/env/defense streams). */
    Rng &rng() { return rng_; }

    /** @name Slot graph (sim/slot_graph.hh) */
    /// @{
    /**
     * Name the sweep cell of the trial just bound (run/experiment's
     * warmSnapshotKey()): every trial of one cell resolves to the
     * same machine. Keeps the slot graph when @p key names the
     * previous cell, starts an empty one otherwise. A trial whose
     * cell is not named after bind() runs without a graph.
     */
    void enterCell(const std::string &key);

    /** The named cell's key; empty when this trial has none. */
    const std::string &cellKey() const;

    /** The cell's slot graph, or null when no cell is named or exact
     *  skipping (PeriodSkipScope) or the prepared-chain cache is
     *  off. */
    SlotGraph *slotGraph();

    /** This trial's replayed and simulated slots (reset by bind()). */
    SlotTally &slotTally() { return slotTally_; }
    /// @}

  private:
    CpuModel model_;
    std::uint64_t seed_ = 0;
    ChannelConfig config_;
    ChannelExtras extras_;
    int preambleBits_ = -1;
    /** Declared before defense_ so the Defense (whose destructor
     *  uninstalls its core hooks) is destroyed first. */
    std::unique_ptr<Core> core_;
    Environment env_;
    std::optional<Defense> defense_;
    Rng rng_{0};

    std::unique_ptr<SlotGraph> slotGraph_;
    std::string graphCell_;
    bool cellNamed_ = false;
    SlotTally slotTally_;
};

} // namespace lf

#endif // LF_CORE_TRIAL_CONTEXT_HH
