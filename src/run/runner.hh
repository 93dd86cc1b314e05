/**
 * @file
 * Streaming parallel executor for batches of ExperimentSpecs.
 *
 * Trials are embarrassingly parallel: each is a pure function of its
 * spec (seed included), so the runner fans a batch out across a
 * std::thread pool via an atomic work index. Each worker keeps one
 * TrialContext alive for its whole share of the batch and rebinds it
 * per trial (Core::reset() instead of per-trial Core construction) —
 * results are bit-identical to building everything afresh, without
 * the construction cost.
 *
 * Results *stream*: run(specs, callback) delivers each result on the
 * calling thread as it becomes available, so sinks can write rows and
 * sweep accumulators can fold cells while later trials are still
 * running — a million-trial sweep needs memory for the in-flight
 * window, not the whole batch. With StreamOrder::SpecOrder (the
 * default) delivery order is the spec order, making the stream — and
 * anything written from it — bit-identical at any thread count; a
 * bounded reorder window keeps workers from racing unboundedly ahead
 * of a slow consumer. The batch run() overload is a thin wrapper that
 * collects the stream into a vector.
 *
 * The reorder window is a ring of completion slots, one per in-flight
 * ticket (see runner.cc for the claim protocol). Workers publish and
 * the consumer collects through per-slot atomics; the shared mutex
 * and condition variables are touched only when a thread actually has
 * to park — a worker because its slot has not been recycled yet (it
 * is a full window ahead of delivery), the consumer because the next
 * result is not in yet. On the contended path of the old
 * implementation every delivered row broadcast to every worker; now a
 * delivery signals at most the workers that are genuinely blocked,
 * and an idle window costs no wakeups at all.
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

/** How a streaming run() hands results to the callback. */
enum class StreamOrder
{
    /** Deliver in spec order: deterministic byte-for-byte output at
     *  any thread count (completed out-of-order results wait in the
     *  reorder window). */
    SpecOrder,
    /** Deliver each result as soon as it completes: lowest latency,
     *  but the order depends on scheduling. The result *set* is
     *  still bit-identical. */
    Completion,
};

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
     * handed to the callback so far. Under StreamOrder::SpecOrder the
     * claim protocol guarantees index < delivered + reorderWindow() —
     * the probe is how the streaming tests assert workers never
     * outrun the window. (Under Completion order delivery can
     * additionally trail by up to the worker count, since consumption
     * is out of ticket order.) Must be thread-safe; null (the
     * default) disables it.
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
     * Run every spec, streaming results to @p on_result on the
     * calling thread (the callback never needs to be thread-safe).
     * An exception thrown by the callback stops the run (workers are
     * drained and joined) and is rethrown.
     */
    void run(const std::vector<ExperimentSpec> &specs,
             const ResultCallback &on_result,
             StreamOrder order = StreamOrder::SpecOrder) const;

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
