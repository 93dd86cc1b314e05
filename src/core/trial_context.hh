/**
 * @file
 * TrialContext: everything one covert-channel trial runs against,
 * bound together — the resolved (defense-folded) CpuModel, the
 * simulated Core, the Environment (src/noise), the Defense
 * (src/defense), and the resolved ChannelConfig/ChannelExtras.
 * Channels transmit through one path, transmit(message,
 * TrialContext&), and an ExperimentSpec resolves into a context
 * through one path, resolveTrial() in src/run/experiment.hh.
 *
 * A TrialContext is built once per trial (a fresh Core every time)
 * and never rebound. What spans trials, the sweep cell's slot graph
 * (sim/slot_graph.hh), is owned by whoever runs the cell's trials and
 * lent to the context.
 */

#ifndef LF_CORE_TRIAL_CONTEXT_HH
#define LF_CORE_TRIAL_CONTEXT_HH

#include <cstdint>

#include "core/channel_registry.hh"
#include "defense/defense.hh"
#include "noise/environment.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"
#include "sim/slot_graph.hh"

namespace lf {

class TrialContext
{
  public:
    /**
     * Build every facet of one trial. The defense-model mitigations
     * of @p defense are folded into the stored model copy
     * (applyDefenseToModel()) before the Core is built. @p graph is
     * the trial's cell's slot graph (not owned; null: none).
     */
    TrialContext(const CpuModel &model, std::uint64_t seed,
                 const ChannelConfig &config, const ChannelExtras &extras,
                 const EnvironmentSpec &env, const DefenseSpec &defense,
                 int preamble_bits, SlotGraph *graph);

    /**
     * Direct construction for hand-built channels (tests, examples):
     * the named model, a quiet-by-default environment, an
     * inactive-by-default defense, type-default config/extras (not
     * any channel's registry defaults — no channel is named here) and
     * no slot graph. Construct channels against core() with an
     * explicit ChannelConfig; the context supplies the execution
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

    /** The trial's resolved, defense-folded CpuModel. */
    const CpuModel &model() const { return model_; }

    /** @name Live trial state */
    /// @{
    Core &core() { return core_; }
    Environment &environment() { return env_; }
    Defense &defense() { return defense_; }
    /// @}

    /** Resolved channel knobs (registry defaults + spec overrides). */
    const ChannelConfig &config() const { return config_; }
    const ChannelExtras &extras() const { return extras_; }

    /** Calibration-preamble override; < 0 defers to the channel's
     *  ChannelConfig::preambleBits. */
    int preambleBits() const { return preambleBits_; }

    /** @name Slot graph (sim/slot_graph.hh) */
    /// @{
    /** The cell's slot graph, or null when the trial has none or
     *  exact skipping (PeriodSkipScope) or the prepared-chain cache
     *  is off. */
    SlotGraph *slotGraph();

    /** This trial's replayed and simulated slots. */
    SlotTally &slotTally() { return slotTally_; }
    /// @}

  private:
    CpuModel model_;
    ChannelConfig config_;
    ChannelExtras extras_;
    int preambleBits_;
    Core core_;
    Environment env_;
    Defense defense_;
    SlotGraph *slotGraph_;
    SlotTally slotTally_;
};

} // namespace lf

#endif // LF_CORE_TRIAL_CONTEXT_HH
