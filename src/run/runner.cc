#include "run/runner.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "frontend/prepared.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace lf {

namespace {

/** One trial, exception-safe: anything thrown becomes an error row so
 *  a bad spec never kills a worker. */
ExperimentResult
runOne(const ExperimentSpec &spec, CellGraph &cell)
{
    try {
        return runExperiment(spec, cell);
    } catch (const std::exception &e) {
        ExperimentResult out;
        out.spec = spec;
        out.ok = false;
        out.error = e.what();
        return out;
    }
}

} // namespace

ExperimentRunner::ExperimentRunner(int threads) : threads_(threads)
{
    if (threads_ <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads_ = hw > 0 ? static_cast<int>(hw) : 1;
    }
}

std::size_t
ExperimentRunner::reorderWindowFor(int workers)
{
    // One claim unit of 128 tickets per worker: room for a run of
    // one cell on every worker, and in-flight memory stays O(threads)
    // (an empty slot is one pointer).
    return static_cast<std::size_t>(workers < 1 ? 1 : workers) * 128;
}

void
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs,
                      const ResultCallback &on_result) const
{
    lf_assert(on_result != nullptr, "streaming run needs a callback");
    if (specs.empty())
        return;

    const std::size_t n = specs.size();
    const int workers = static_cast<int>(
        std::min<std::size_t>(n, static_cast<std::size_t>(threads_)));

    // Metrics are accumulated locally and copied into the sink at the
    // end, so the sink is overwritten, never accumulated. The
    // prepared-cache totals are process-wide, so the delta attributes
    // concurrent runs' traffic too — one runner at a time, the normal
    // case, is exact.
    obs::RunMetrics metrics;
    const std::uint64_t prep_hits =
        metricsSink_ != nullptr ? preparedCacheHits() : 0;
    const std::uint64_t prep_misses =
        metricsSink_ != nullptr ? preparedCacheMisses() : 0;
    const auto run_start = std::chrono::steady_clock::now();
    const auto count_outcome = [&](const ExperimentResult &res) {
        ++metrics.trials;
        if (res.skipped)
            ++metrics.skippedTrials;
        else if (res.ok)
            ++metrics.okTrials;
        else
            ++metrics.errorTrials;
    };
    const auto finish_metrics = [&](std::size_t window) {
        if (metricsSink_ == nullptr)
            return;
        metrics.workers = workers;
        metrics.reorderWindow = window;
        metrics.preparedCacheHits = preparedCacheHits() - prep_hits;
        metrics.preparedCacheMisses =
            preparedCacheMisses() - prep_misses;
        metrics.seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              run_start)
                              .count();
        metrics.trialsPerSec = metrics.seconds > 0.0
            ? static_cast<double>(metrics.trials) / metrics.seconds
            : 0.0;
        *metricsSink_ = metrics;
    };

    if (workers <= 1) {
        // Single-threaded: compute and deliver inline, in spec order.
        CellGraph cell;
        for (std::size_t i = 0; i < n; ++i) {
            if (trialProbe_)
                trialProbe_(i, i);
            const std::uint64_t trial_start =
                obs::traceEnabled() ? obs::traceNowUs() : 0;
            const ExperimentResult res = runOne(specs[i], cell);
            obs::traceComplete("trial", trial_start, i, true);
            if (metricsSink_ != nullptr) {
                count_outcome(res);
                ++metrics.windowOccupancy[0];
            }
            const std::uint64_t deliver_start =
                obs::traceEnabled() ? obs::traceNowUs() : 0;
            on_result(res);
            obs::traceComplete("deliver", deliver_start);
        }
        finish_metrics(reorderWindowFor(1));
        return;
    }

    // A reorder buffer under one mutex. Ticket i goes in slot
    // i % window, and a worker claims ticket i only while
    // i < delivered + window, so that slot has always been emptied by
    // then and memory stays O(window) however large the batch is. The
    // calling thread is the only consumer and delivers in spec order.
    // Each side waits on its own condition variable and is notified
    // only while it is actually parked.
    //
    // A worker claims a run of consecutive tickets of one sweep cell,
    // so it keeps that cell's slot graph for the whole run and no two
    // workers calibrate the same cell cold at once. A run stops at the
    // cell's end, at its worker's share of the window, and at an even
    // share of the tickets left (so one cell still spreads over every
    // worker). A run that would cross the window's edge waits for room
    // instead of being cut short, so where runs begin and end depends
    // on the batch and the worker count alone, never on timing.
    const std::size_t window = reorderWindowFor(workers);
    const std::size_t per_worker =
        window / static_cast<std::size_t>(workers);
    std::vector<std::size_t> cellEnd(n); // end of the cell run at i
    cellEnd[n - 1] = n;
    for (std::size_t i = n - 1; i-- > 0;)
        cellEnd[i] = sameCell(specs[i], specs[i + 1]) ? cellEnd[i + 1]
                                                       : i + 1;
    const auto run_end = [&](std::size_t begin) {
        const std::size_t share = std::max<std::size_t>(
            1, (n - begin) / static_cast<std::size_t>(workers));
        return std::min({cellEnd[begin], begin + per_worker,
                         begin + share});
    };
    std::mutex mutex; // guards the state below and the park counts
    std::condition_variable resultReady; // the consumer parks here
    std::condition_variable roomFree;    // workers park here
    std::vector<std::unique_ptr<ExperimentResult>> slots(window);
    std::size_t next = 0;      // next ticket to claim
    std::size_t delivered = 0; // results handed to the callback
    bool cancelled = false;
    bool consumerParked = false;
    int parkedWorkers = 0;
    // Whether a worker may go on, under the lock: to leave, or to
    // claim the next run, which must fit inside the window.
    const auto can_go_on = [&] {
        return cancelled || next >= n ||
            run_end(next) <= delivered + window;
    };

    auto work = [&]() {
        CellGraph cell;
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            if (!can_go_on()) {
                // The next run reaches past the window: park until
                // the consumer makes room.
                obs::TraceScope park_span("worker_park");
                ++metrics.workerParks;
                ++parkedWorkers;
                roomFree.wait(lock, can_go_on);
                --parkedWorkers;
            }
            if (cancelled || next >= n)
                return;
            const std::size_t begin = next;
            const std::size_t end = run_end(begin);
            const std::size_t seen = delivered;
            next = end;
            for (std::size_t i = begin; i < end; ++i) {
                lock.unlock();
                if (trialProbe_)
                    trialProbe_(i, seen);
                const std::uint64_t trial_start =
                    obs::traceEnabled() ? obs::traceNowUs() : 0;
                auto result = std::make_unique<ExperimentResult>(
                    runOne(specs[i], cell));
                obs::traceComplete("trial", trial_start, i, true);
                lock.lock();
                std::unique_ptr<ExperimentResult> &slot =
                    slots[i % window];
                lf_assert(!slot, "ticket %zu would overwrite an"
                          " undelivered result", i);
                slot = std::move(result);
                if (consumerParked && i == delivered)
                    resultReady.notify_one();
                if (cancelled)
                    return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t)
        pool.emplace_back(work);

    const auto shutdown = [&]() {
        {
            std::lock_guard<std::mutex> lock(mutex);
            cancelled = true;
        }
        roomFree.notify_all();
        for (std::thread &thread : pool)
            thread.join();
    };

    try {
        for (std::size_t d = 0; d < n; ++d) {
            std::unique_lock<std::mutex> lock(mutex);
            std::unique_ptr<ExperimentResult> &slot = slots[d % window];
            if (!slot) {
                obs::TraceScope park_span("consumer_park");
                ++metrics.consumerParks;
                consumerParked = true;
                resultReady.wait(lock, [&] { return slot != nullptr; });
                consumerParked = false;
            }
            const std::unique_ptr<ExperimentResult> result =
                std::move(slot);
            // Window occupancy at this delivery: claimed tickets not
            // yet handed to the callback.
            const std::size_t occ = next - delivered;
            ++delivered;
            // Room for the next run; wake the parked workers so one
            // of them claims it while the callback runs.
            if (parkedWorkers > 0 && can_go_on()) {
                ++metrics.wakeBroadcasts;
                roomFree.notify_all();
            }
            lock.unlock();
            obs::traceCounter("window_occupancy", occ);
            if (metricsSink_ != nullptr) {
                count_outcome(*result);
                ++metrics.windowOccupancy[std::min<std::size_t>(
                    occ * obs::RunMetrics::kOccupancyBuckets / window,
                    obs::RunMetrics::kOccupancyBuckets - 1)];
            }
            on_result(*result);
        }
    } catch (...) {
        shutdown();
        throw;
    }
    shutdown();
    finish_metrics(window);
}

std::vector<ExperimentResult>
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    run(specs, [&results](const ExperimentResult &res) {
        results.push_back(res);
    });
    return results;
}

std::vector<ExperimentResult>
ExperimentRunner::runTrials(const std::vector<ExperimentSpec> &specs,
                            int trials) const
{
    lf_assert(trials >= 1, "need at least one trial, got %d", trials);
    std::vector<ExperimentSpec> batch;
    batch.reserve(specs.size() * static_cast<std::size_t>(trials));
    for (const ExperimentSpec &spec : specs) {
        for (ExperimentSpec &trial_spec : expandTrials(spec, trials))
            batch.push_back(std::move(trial_spec));
    }
    return run(batch);
}

} // namespace lf
