/**
 * @file
 * Streaming parallel executor for batches of ExperimentSpecs.
 *
 * Trials are embarrassingly parallel: each is a pure function of its
 * spec (seed included), so the runner fans a batch out across a
 * std::thread pool. Every trial builds its own TrialContext; each
 * worker carries only the slot graph of the sweep cell it is in
 * (CellGraph) from one trial to the next. A worker claims a run of
 * consecutive trials of one cell (sameCell()), capped at its share of
 * the window and an even share of what is left, so it learns that
 * cell's graph and cold calibration once rather than every worker
 * learning them in turn.
 *
 * Results *stream*: run(specs, callback) delivers each result on the
 * calling thread in spec order, as soon as it and every earlier result
 * are in. Sinks write rows and sweep accumulators fold cells while
 * later trials still run, and the stream — and anything written from
 * it — is bit-identical at any thread count. Completed results wait in
 * a bounded reorder buffer (runner.cc) that also keeps workers from
 * running more than a window ahead of a slow consumer: a million-trial
 * sweep needs memory for the window, not the whole batch. The batch
 * run() overload is a thin wrapper that collects the stream into a
 * vector.
 */

#ifndef LF_RUN_RUNNER_HH
#define LF_RUN_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "run/experiment.hh"

namespace lf {

namespace obs {
struct RunMetrics;
}

class ExperimentRunner
{
  public:
    /** @param threads Worker count; 0 means hardware concurrency. */
    explicit ExperimentRunner(int threads = 0);

    /** Resolved worker count (>= 1). */
    int threads() const { return threads_; }

    /** Reorder-window size (slots) a streaming run of this runner
     *  uses: how far workers may run ahead of delivery. */
    std::size_t reorderWindow() const
    {
        return reorderWindowFor(threads_);
    }

    /** The window a run with @p workers claimed threads uses. */
    static std::size_t reorderWindowFor(int workers);

    /**
     * Test/diagnostic hook, called on the claiming worker right
     * before each trial starts as probe(index, delivered): @p index
     * is the spec about to run, @p delivered the number of results
     * handed to the callback when the worker claimed the run holding
     * @p index (on one thread: so far). The claim rule guarantees
     * index < delivered + reorderWindow() — the probe is how the
     * streaming tests assert workers never outrun the window. Must be
     * thread-safe; null (the default) disables it.
     */
    using TrialProbe =
        std::function<void(std::size_t index, std::size_t delivered)>;
    void setTrialProbe(TrialProbe probe)
    {
        trialProbe_ = std::move(probe);
    }

    /** Overwrite @p sink with the full obs::RunMetrics report
     *  (throughput, outcome counts, park/broadcast totals, prepared-
     *  cache traffic, reorder-window occupancy histogram) at the end
     *  of every non-empty streaming run(). Purely observational —
     *  results never depend on whether a sink is installed. Null (the
     *  default) disables the accounting; the sink must outlive the
     *  runs. */
    void setMetricsSink(obs::RunMetrics *sink) { metricsSink_ = sink; }

    /** Invoked on the runner's calling thread, once per spec. */
    using ResultCallback = std::function<void(const ExperimentResult &)>;

    /**
     * Run every spec, streaming results in spec order to @p on_result
     * on the calling thread (the callback never needs to be
     * thread-safe).
     * An exception thrown by the callback stops the run (workers are
     * drained and joined) and is rethrown.
     */
    void run(const std::vector<ExperimentSpec> &specs,
             const ResultCallback &on_result) const;

    /**
     * Batch form: run every spec and return results in spec order.
     * Thread count affects wall time only, never the results.
     */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentSpec> &specs) const;

    /** expandTrials() each spec, then run the concatenated batch. */
    std::vector<ExperimentResult>
    runTrials(const std::vector<ExperimentSpec> &specs,
              int trials) const;

  private:
    int threads_;
    TrialProbe trialProbe_;
    obs::RunMetrics *metricsSink_ = nullptr;
};

} // namespace lf

#endif // LF_RUN_RUNNER_HH
