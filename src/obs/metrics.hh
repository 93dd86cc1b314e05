/**
 * @file
 * RunMetrics: the structured end-of-run report of one streaming
 * ExperimentRunner::run() — throughput, outcome counts, runner
 * park/broadcast counters, caching and window occupancy. Install
 * with ExperimentRunner::setMetricsSink(); render with
 * renderRunMetricsJson() (`lf_run --metrics FILE`) or the one-line
 * form the `--progress` final line prints.
 *
 * Everything here is observational: wall-clock seconds and rates vary
 * run to run, but collecting them never touches trial results.
 */

#ifndef LF_OBS_METRICS_HH
#define LF_OBS_METRICS_HH

#include <array>
#include <cstdint>
#include <string>

namespace lf {
namespace obs {

struct RunMetrics
{
    /** @name Outcome counts */
    /// @{
    std::uint64_t trials = 0;
    std::uint64_t okTrials = 0;
    std::uint64_t errorTrials = 0;
    std::uint64_t skippedTrials = 0;
    /// @}

    /** @name Throughput */
    /// @{
    int workers = 0;
    double seconds = 0.0;
    double trialsPerSec = 0.0;
    /// @}

    /** @name Runner coordination */
    /// @{
    /** Times a worker blocked because it was a full reorder window
     *  ahead of delivery. */
    std::uint64_t workerParks = 0;
    /** Times the consumer blocked waiting for the next result. */
    std::uint64_t consumerParks = 0;
    /** Room-in-window broadcasts issued (only ever sent while at
     *  least one worker is parked). */
    std::uint64_t wakeBroadcasts = 0;
    /// @}

    /** @name Prepared-chain cache traffic during the run */
    /// @{
    std::uint64_t preparedCacheHits = 0;
    std::uint64_t preparedCacheMisses = 0;
    /// @}

    /**
     * Reorder-window occupancy histogram, sampled at each delivery:
     * bucket b counts deliveries that saw an in-flight backlog in
     * [b, b+1) eighths of the window (bucket 7 includes a full
     * window). A single-threaded run lands every sample in bucket 0.
     */
    static constexpr std::size_t kOccupancyBuckets = 8;
    std::uint64_t reorderWindow = 0;
    std::array<std::uint64_t, kOccupancyBuckets> windowOccupancy{};

    double preparedCacheHitRate() const
    {
        const std::uint64_t total =
            preparedCacheHits + preparedCacheMisses;
        return total > 0
            ? static_cast<double>(preparedCacheHits) /
                static_cast<double>(total)
            : 0.0;
    }
};

/** Render as a single stable-schema JSON object (snake_case keys;
 *  see docs/OBSERVABILITY.md for the schema). */
std::string renderRunMetricsJson(const RunMetrics &metrics);

/** The `--progress` final line: trials, seconds, trials/s, prepared-
 *  cache hit rate, parks. */
std::string runMetricsOneLiner(const RunMetrics &metrics);

} // namespace obs
} // namespace lf

#endif // LF_OBS_METRICS_HH
