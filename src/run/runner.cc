#include "run/runner.hh"

#include <algorithm>
#include <atomic>
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
runOne(const ExperimentSpec &spec, TrialContext &ctx)
{
    try {
        return runExperiment(spec, ctx);
    } catch (const std::exception &e) {
        ExperimentResult out;
        out.spec = spec;
        out.ok = false;
        out.error = e.what();
        return out;
    }
}

/**
 * One completion slot of the reorder ring (Vyukov bounded-queue
 * style). Ticket i lives in slot i % window, and the slot's `seq`
 * encodes its state:
 *
 *   seq == i              free for the producer of ticket i
 *                         (initially seq == slot index; the consumer
 *                         recycles a consumed slot to i + window);
 *   seq == i + 1          ticket i's result is published and ready.
 *
 * The producer claims by observing seq == i, writes `result`, and
 * publishes with seq = i + 1; the consumer observes readiness, moves
 * the result out, and recycles with seq = i + window. seq is the only
 * synchronisation on the hot path — the mutex below is touched only
 * to park.
 */
struct alignas(64) Slot
{
    std::atomic<std::uint64_t> seq{0};
    ExperimentResult result;
};

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
    // Large enough that workers keep streaming while the consumer
    // handles a burst, small enough that in-flight memory stays
    // O(threads).
    return std::max<std::size_t>(
        64, static_cast<std::size_t>(workers < 1 ? 1 : workers) * 8);
}

void
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs,
                      const ResultCallback &on_result,
                      StreamOrder order) const
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
        // Single-threaded: compute and deliver inline. Both stream
        // orders coincide with spec order.
        TrialContext ctx;
        for (std::size_t i = 0; i < n; ++i) {
            if (trialProbe_)
                trialProbe_(i, i);
            const std::uint64_t trial_start =
                obs::traceEnabled() ? obs::traceNowUs() : 0;
            const ExperimentResult res = runOne(specs[i], ctx);
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

    // Workers claim spec indices through an atomic ticket counter and
    // publish into a ring of completion slots; the calling thread is
    // the only consumer, delivering either in spec order or as
    // results land. The ring bounds how far workers run ahead of
    // delivery, so memory stays O(threads + window) however large the
    // batch is. All steady-state coordination is the per-slot seq
    // atomics; `mutex` and the condvars exist only to park, and the
    // Dekker-style flags below (`consumerParked`, `blockedWorkers`)
    // make every wakeup conditional on somebody actually sleeping:
    //  - producer publishes seq (seq_cst), then loads consumerParked;
    //    the consumer stores consumerParked (seq_cst), then re-checks
    //    seq — at least one side observes the other, so the consumer
    //    never sleeps through a publish;
    //  - symmetrically, a worker bumps blockedWorkers (seq_cst), then
    //    re-checks its slot; the consumer recycles seq (seq_cst),
    //    then loads blockedWorkers — a recycle never goes unnoticed.
    const std::size_t window = reorderWindowFor(workers);

    auto slots = std::make_unique<Slot[]>(window);
    for (std::size_t k = 0; k < window; ++k)
        slots[k].seq.store(k, std::memory_order_relaxed);

    std::mutex mutex;
    std::condition_variable resultReady; // consumer parks here
    std::condition_variable slotFree;    // workers park here
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> delivered{0};
    std::atomic<bool> cancelled{false};
    std::atomic<bool> consumerParked{false};
    std::atomic<int> blockedWorkers{0};
    std::atomic<std::uint64_t> workerParks{0};
    std::atomic<std::uint64_t> consumerParks{0};
    std::atomic<std::uint64_t> wakeBroadcasts{0};

    auto work = [&]() {
        TrialContext ctx;
        for (;;) {
            const std::uint64_t i = next.fetch_add(1);
            if (i >= n)
                return;
            Slot &slot = slots[i % window];
            if (slot.seq.load() != i) {
                // A full window ahead of delivery: park until the
                // consumer recycles this slot.
                obs::TraceScope park_span("worker_park");
                std::unique_lock<std::mutex> lock(mutex);
                workerParks.fetch_add(1, std::memory_order_relaxed);
                blockedWorkers.fetch_add(1);
                slotFree.wait(lock, [&] {
                    return slot.seq.load() == i || cancelled.load();
                });
                blockedWorkers.fetch_sub(1);
            }
            if (cancelled.load())
                return;
            if (trialProbe_)
                trialProbe_(i, delivered.load());
            const std::uint64_t trial_start =
                obs::traceEnabled() ? obs::traceNowUs() : 0;
            slot.result = runOne(specs[i], ctx);
            obs::traceComplete("trial", trial_start, i, true);
            slot.seq.store(i + 1); // publish (seq_cst)
            if (consumerParked.load()) {
                // One consumer; taking the mutex serialises with its
                // wait entry so the notify cannot be lost.
                std::lock_guard<std::mutex> lock(mutex);
                resultReady.notify_one();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t)
        pool.emplace_back(work);

    const auto shutdown = [&]() {
        cancelled.store(true);
        next.store(n); // no new tickets
        {
            std::lock_guard<std::mutex> lock(mutex);
            slotFree.notify_all();
        }
        for (std::thread &thread : pool)
            thread.join();
    };

    // Park until pred() holds. pred reads only atomics, so checking
    // it outside the mutex first keeps the fast path lock-free; the
    // consumerParked handshake (see above) closes the sleep race.
    const auto consumerWait = [&](auto &&pred) {
        if (pred())
            return;
        obs::TraceScope park_span("consumer_park");
        consumerParked.store(true);
        consumerParks.fetch_add(1, std::memory_order_relaxed);
        {
            std::unique_lock<std::mutex> lock(mutex);
            resultReady.wait(lock, pred);
        }
        consumerParked.store(false);
    };

    // Hand one published slot to the callback. The slot is recycled
    // *before* the callback runs so workers stream on while the
    // consumer writes rows; at most the genuinely parked workers are
    // woken (notify_all because they park on distinct slots — the
    // non-matching ones re-check their seq and sleep again).
    const auto deliver = [&](Slot &slot, std::uint64_t recycled_seq) {
        ExperimentResult result = std::move(slot.result);
        slot.result = ExperimentResult{};
        if (metricsSink_ != nullptr || obs::traceEnabled()) {
            // Window occupancy at this delivery: claimed tickets not
            // yet handed to the callback. Sampled on the consumer
            // only, so the histogram needs no synchronisation.
            const std::uint64_t claimed =
                std::min<std::uint64_t>(next.load(), n);
            const std::uint64_t occ = claimed - delivered.load();
            obs::traceCounter("window_occupancy", occ);
            if (metricsSink_ != nullptr) {
                count_outcome(result);
                const std::size_t bucket = std::min<std::size_t>(
                    static_cast<std::size_t>(occ) *
                        obs::RunMetrics::kOccupancyBuckets / window,
                    obs::RunMetrics::kOccupancyBuckets - 1);
                ++metrics.windowOccupancy[bucket];
            }
        }
        delivered.fetch_add(1);
        slot.seq.store(recycled_seq); // recycle (seq_cst)
        if (blockedWorkers.load() > 0) {
            wakeBroadcasts.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mutex);
            slotFree.notify_all();
        }
        on_result(result);
    };

    try {
        if (order == StreamOrder::SpecOrder) {
            for (std::uint64_t d = 0; d < n; ++d) {
                Slot &slot = slots[d % window];
                consumerWait([&] { return slot.seq.load() == d + 1; });
                deliver(slot, d + window);
            }
        } else {
            // Completion order: collect any published slot. Slot k
            // holds a ready ticket t (t % window == k) exactly when
            // seq == t + 1, i.e. seq % window == (k + 1) % window.
            const auto readyTicket = [&](std::size_t k) -> std::int64_t {
                const std::uint64_t s = slots[k].seq.load();
                if (s % window == (k + 1) % window)
                    return static_cast<std::int64_t>(s - 1);
                return -1;
            };
            std::uint64_t count = 0;
            while (count < n) {
                std::size_t k = 0;
                consumerWait([&] {
                    for (std::size_t j = 0; j < window; ++j) {
                        if (readyTicket(j) >= 0) {
                            k = j;
                            return true;
                        }
                    }
                    return false;
                });
                const std::uint64_t ticket =
                    static_cast<std::uint64_t>(readyTicket(k));
                deliver(slots[k], ticket + window);
                ++count;
            }
        }
    } catch (...) {
        shutdown();
        throw;
    }
    shutdown();
    if (metricsSink_ != nullptr) {
        metrics.workerParks = workerParks.load();
        metrics.consumerParks = consumerParks.load();
        metrics.wakeBroadcasts = wakeBroadcasts.load();
    }
    finish_metrics(window);
}

std::vector<ExperimentResult>
ExperimentRunner::run(const std::vector<ExperimentSpec> &specs) const
{
    std::vector<ExperimentResult> results;
    results.reserve(specs.size());
    run(specs,
        [&results](const ExperimentResult &res) {
            results.push_back(res);
        },
        StreamOrder::SpecOrder);
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
