/**
 * @file
 * Run descriptors for covert-channel experiments.
 *
 * An ExperimentSpec names everything one trial needs — the channel (by
 * registry name), the CPU model (by Table I name), the RNG seed, the
 * message, and any config overrides — so that a batch of specs can be
 * executed by the ExperimentRunner on any number of worker threads
 * with bit-identical results: every trial is a pure function of its
 * spec. resolveTrial() is the one path from spec to a TrialContext,
 * which it constructs afresh for every trial. What spans trials is
 * the slot graph of a sweep cell (CellGraph), carried by whoever runs
 * the cell's trials in sequence.
 */

#ifndef LF_RUN_EXPERIMENT_HH
#define LF_RUN_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/message.hh"
#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "defense/defense.hh"
#include "noise/environment.hh"
#include "obs/counters.hh"

namespace lf {

/** Everything needed to run one covert-channel trial. */
struct ExperimentSpec
{
    /** Canonical channel name (see allChannelNames()). */
    std::string channel;
    /** CPU model name (see allCpuModels()). */
    std::string cpu;
    /** Seed for the trial's Core (and, mixed, its message RNG). */
    std::uint64_t seed = 1;
    /** Trial index within a batch (informational; set by
     *  expandTrials()). */
    int trial = 0;

    MessagePattern pattern = MessagePattern::Alternating;
    std::size_t messageBits = 100;
    /** Calibration bits; < 0 uses the channel's configured default. */
    int preambleBits = -1;

    /** Optional free-form tag echoed into every sink row (bench
     *  binaries use the paper's row labels). */
    std::string label;

    /** ChannelConfig / extras overrides applied on top of the
     *  channel's registry defaults (keys as in
     *  applyChannelOverride()), plus "model."-prefixed CPU-model
     *  overrides (keys as in applyModelOverride()) applied to a
     *  per-trial copy of the named CPU model — ablation sweeps bend
     *  the machine, not just the channel — plus "env."-prefixed
     *  environment knobs (keys as in applyEnvOverride()) composing
     *  the trial's interference model, plus "defense."-prefixed
     *  mitigation knobs (keys as in applyDefenseOverride())
     *  composing the trial's defense deployment. std::map keeps
     *  application order deterministic. */
    std::map<std::string, double> overrides;
};

/** Outcome of one trial. */
struct ExperimentResult
{
    ExperimentSpec spec;
    bool ok = false;
    /** True when the channel does not apply to the CPU model (e.g. an
     *  MT channel on the SMT-disabled E-2288G); not an error. */
    bool skipped = false;
    std::string error;  //!< Reason when !ok.
    ChannelResult result;
    /** Resolved family-specific knobs the trial actually ran with
     *  (complements ChannelResult::config). Valid when ok. */
    ChannelExtras extras;
    /** Per-trial counter snapshot; non-null only for ok trials run
     *  with obs::setCountersEnabled(true). Never serialized by the
     *  standard sinks — enabling counters leaves every sink's bytes
     *  untouched (the on/off bit-identity contract). */
    std::shared_ptr<const obs::CounterSet> counters;
};

/**
 * Derive the seed of trial @p trial from batch seed @p base via a
 * splitmix64-style mix: decorrelated across trials, independent of
 * execution order and thread count.
 */
std::uint64_t deriveTrialSeed(std::uint64_t base, int trial);

/**
 * Expand @p spec into @p trials independent trials with derived
 * per-trial seeds (trial 0 keeps the base seed so a 1-trial batch is
 * identical to running the spec directly).
 */
std::vector<ExperimentSpec> expandTrials(const ExperimentSpec &spec,
                                         int trials);

/** The trial's message bits (deterministic in the spec alone). */
std::vector<bool> specMessage(const ExperimentSpec &spec);

/**
 * The one resolution path from spec to runnable trial: split the
 * override map four ways by key prefix (plain keys -> ChannelConfig/
 * extras, "model." -> a private copy of the named CPU model, "env."
 * -> the EnvironmentSpec, "defense." -> the DefenseSpec), range-check
 * everything, and construct @p ctx from the result (its Core,
 * Environment and Defense seeded from the spec's seed). An earlier
 * context in @p ctx goes first; an error or skip leaves it empty.
 *
 * @param skipped When non-null, set to true if the channel does not
 *        apply to the resolved model — e.g. an MT channel on the
 *        SMT-disabled E-2288G. Not an error.
 * @param graph The slot graph of the spec's sweep cell, lent to the
 *        context; null runs every slot plainly.
 * @return an error message ("" on success) — unknown override keys
 *         and unusable resolved values are reported, not fatal, so a
 *         bad spec in a parallel batch becomes an error row.
 */
std::string resolveTrial(const ExperimentSpec &spec,
                         std::optional<TrialContext> &ctx,
                         bool *skipped = nullptr,
                         SlotGraph *graph = nullptr);

/**
 * Validate names and config resolution without building a context;
 * returns an error message or the empty string. (Support constraints
 * like SMT are reported via ExperimentResult::skipped, not here.)
 */
std::string validateSpec(const ExperimentSpec &spec);

/**
 * The sweep-cell key of the warm snapshot and the slot graph: exactly
 * the spec fields that determine the post-calibration machine state.
 * Seed, trial index, message bits/pattern and label are deliberately
 * absent — the snapshot is only ever captured when calibration proved
 * itself seed-independent (the RNG tripwire), and the message phase
 * runs live per trial.
 * Mirrors the PreparedChain key discipline: resolved identity, not
 * incidental identity. Overrides carry the model/env/defense folds;
 * std::map iteration keeps the rendering canonical.
 */
std::string warmSnapshotKey(const ExperimentSpec &spec);

/** Whether @p a and @p b lie in one sweep cell: the same as
 *  warmSnapshotKey(a) == warmSnapshotKey(b), without building the
 *  strings. The runner uses it to hand a worker a run of one cell's
 *  trials. */
bool sameCell(const ExperimentSpec &a, const ExperimentSpec &b);

/** The slot graph of one sweep cell, carried from trial to trial by
 *  a runner worker (or held by one runExperiment() call). */
struct CellGraph
{
    std::string key; //!< The cell's key; empty before the first trial.
    SlotGraph graph;
};

/** Run one trial synchronously on the calling thread. */
ExperimentResult runExperiment(const ExperimentSpec &spec);

/** Same, carrying @p cell's graph: kept while @p spec names the cell
 *  of the last trial that resolved, else started empty. The results
 *  are bit-identical to the one-off overload. */
ExperimentResult runExperiment(const ExperimentSpec &spec,
                               CellGraph &cell);

} // namespace lf

#endif // LF_RUN_EXPERIMENT_HH
