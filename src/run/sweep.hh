/**
 * @file
 * Cartesian parameter sweeps over the ExperimentRunner.
 *
 * A SweepSpec names a grid — channel set x CPU set x message pattern
 * set x any number of config/model override axes — plus a trial count,
 * and expands it into one flat ExperimentSpec batch. The batch runs
 * through a single ExperimentRunner thread pool (no per-cell pool
 * churn), and per-cell statistics (mean/stddev error rate and rate,
 * effective rate, Shannon capacity estimate) fold incrementally out
 * of the result stream (SweepAccumulator) — a grid's summary costs
 * O(cells) memory however many trials run.
 *
 * Determinism rules, which make sweeps resumable and shardable:
 *  - expansion order is a pure function of the spec (channel-major,
 *    then CPU, then pattern, then axes with the last axis fastest);
 *  - every cell's seed is derived from the base seed and the cell's
 *    index in the *full* grid, so a shard (--shard i/n) computes
 *    exactly the rows the full run would, bit for bit;
 *  - trial seeds within a cell come from expandTrials().
 */

#ifndef LF_RUN_SWEEP_HH
#define LF_RUN_SWEEP_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "run/runner.hh"
#include "run/sinks.hh"

namespace lf {

/** One swept dimension: an override key and the values it takes.
 *  Keys are ChannelConfig/extras knobs (applyChannelOverride()),
 *  "model."-prefixed CPU knobs (applyModelOverride()), or
 *  "env."-prefixed environment knobs (applyEnvOverride()). */
struct SweepAxis
{
    std::string key;
    std::vector<double> values;
};

/** A cartesian experiment grid. */
struct SweepSpec
{
    /** Fixed row label for every cell; empty selects an automatic
     *  per-cell label (channel / pattern / "key=value" parts, only
     *  the dimensions that actually vary). */
    std::string label;

    std::vector<std::string> channels; //!< Registry names.
    std::vector<std::string> cpus;     //!< Table I model names.
    std::vector<MessagePattern> patterns = {
        MessagePattern::Alternating};
    std::vector<SweepAxis> axes;       //!< Swept override dimensions.

    /** Overrides applied to every cell (axes win on conflict —
     *  validateSweepSpec() rejects such specs up front). */
    std::map<std::string, double> baseOverrides;

    int trials = 1;            //!< Independent trials per cell.
    std::uint64_t seed = 1;    //!< Base seed of the whole sweep.
    std::size_t messageBits = 100;
    int preambleBits = -1;     //!< < 0 uses the channel's default.
};

/** A 1-of-n slice of a sweep: cell c belongs to shard c % count. */
struct SweepShard
{
    int index = 0;
    int count = 1;
};

/** Most trials one sweep grid may expand to (cells x trials);
 *  validateSweepSpec() rejects a larger grid before anything
 *  allocates it. */
constexpr std::size_t kMaxSweepTrials = 1000000;

/** Number of grid cells (trials excluded). */
std::size_t sweepCellCount(const SweepSpec &spec);

/**
 * The per-cell identity of a result — its spec minus seed and trial
 * index — serialized into one unambiguous key. Field separators are
 * control characters no label/channel name contains, and override
 * values render round-trip-exact (jsonNumber), so two specs map to
 * the same key iff they are the same cell. SweepAccumulator groups
 * by it; the campaign result cache files one entry per cell under
 * its hash (cellKey()).
 */
std::string cellKeyOf(const ExperimentSpec &spec);

/**
 * Check the grid itself: non-empty dimensions, known channel/CPU/
 * override names, no duplicate or conflicting axis keys, sane trial
 * count, at most kMaxSweepTrials trials in all.
 * @return an error message or the empty string.
 */
std::string validateSweepSpec(const SweepSpec &spec);

/** Check a shard selector against a sweep. */
std::string validateSweepShard(const SweepSpec &spec,
                               const SweepShard &shard);

/**
 * Check override *values* up front, the way the CLI wants it: every
 * channel x CPU cell is probed with the base overrides, and every
 * axis value is probed in isolation on top of them, through the same
 * resolution path runExperiment() uses. "--set repetition=2" fails
 * here with the resolver's message ("repetition must be odd...")
 * instead of surfacing as per-trial error rows after the run starts.
 * Values that are only invalid in *combination* (two axes that clash
 * mid-grid) still become error rows. Call after validateSweepSpec()
 * succeeds. @return an error message or the empty string.
 */
std::string validateSweepSpecValues(const SweepSpec &spec);

/**
 * Expand @p spec (restricted to @p shard) into the flat, run-ready
 * ExperimentSpec batch. Fatal on an invalid spec/shard — call the
 * validators first when the input is user-supplied.
 */
std::vector<ExperimentSpec> expandSweep(const SweepSpec &spec,
                                        const SweepShard &shard = {});

/** expandSweep() then ExperimentRunner::run() in one thread pool. */
std::vector<ExperimentResult> runSweep(const SweepSpec &spec,
                                       const ExperimentRunner &runner,
                                       const SweepShard &shard = {});

/** Per-cell statistics over a result batch's trials. */
struct SweepCellSummary
{
    std::string label;
    std::string channel;
    std::string cpu;
    std::string pattern;
    std::map<std::string, double> overrides;

    int trials = 0;        //!< All rows of the cell.
    int okTrials = 0;
    int skippedTrials = 0;
    int failedTrials = 0;  //!< Error rows (not skips).

    /** Over ok trials only. */
    OnlineStats errorRate;
    OnlineStats transmissionKbps;
    OnlineStats seconds;
    /** Rate x (1 - error) per trial. */
    OnlineStats effectiveKbps;
    /** Rate x BSC capacity(error) per trial (src/common/stats). */
    OnlineStats capacityKbps;
};

/**
 * Incremental per-cell aggregation: add() folds one result into its
 * cell's statistics as the streaming runner delivers it, so a sweep
 * summary costs O(cells) memory however many trials stream through —
 * no full-batch buffering. Cells are keyed by everything in the spec
 * except seed and trial index, and reported in first-seen order;
 * feeding a whole batch in order reproduces aggregateSweep() exactly.
 */
class SweepAccumulator
{
  public:
    /** Fold one result into its cell (creating the cell on first
     *  sight). */
    void add(const ExperimentResult &res);

    /** Per-cell statistics so far, in first-seen order. */
    const std::vector<SweepCellSummary> &cells() const
    {
        return cells_;
    }

    /** Results folded in so far. */
    std::size_t resultCount() const { return count_; }

    /** Forget everything. */
    void clear();

  private:
    /** Serialized cell identity -> index into cells_. */
    std::map<std::string, std::size_t> index_;
    std::vector<SweepCellSummary> cells_;
    std::size_t count_ = 0;
};

/**
 * Batch convenience over SweepAccumulator: group a result batch by
 * cell — everything in the spec except seed and trial index —
 * preserving first-seen order, and accumulate the per-cell
 * statistics. Works on any ExperimentResult batch, sharded or not.
 */
std::vector<SweepCellSummary>
aggregateSweep(const std::vector<ExperimentResult> &results);

/**
 * Sink rendering the aggregated per-cell statistics as a text table:
 * one row per cell with trial counts, mean/stddev error and rate,
 * effective rate and capacity estimate. Streams into a
 * SweepAccumulator (O(cells) state); the table renders in
 * writeFooter().
 */
class SweepSummarySink : public ResultSink
{
  public:
    explicit SweepSummarySink(std::string title = "");

    void writeHeader(std::ostream &os) override;
    void writeRow(const ExperimentResult &res,
                  std::ostream &os) override;
    void writeFooter(std::ostream &os) override;

  private:
    std::string title_;
    SweepAccumulator accumulator_;
};

} // namespace lf

#endif // LF_RUN_SWEEP_HH
