/**
 * @file
 * Streaming-runner identity tests: the streamed callback API, the
 * batch API, reused vs fresh cores, and 1/4/8 worker threads must all
 * produce bit-identical results over a registry-wide spec grid; the
 * incremental SweepAccumulator must reproduce aggregateSweep()
 * exactly; and resolveTrial() must subsume the old per-facet
 * resolution (errors and skips become rows, never aborts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "frontend/prepared.hh"
#include "obs/counters.hh"
#include "run/runner.hh"
#include "run/sinks.hh"
#include "run/sweep.hh"
#include "sim/cpu_model.hh"
#include "sim/period_skip.hh"
#include "sim/snapshot.hh"

namespace lf {
namespace {

/** Registry-wide grid: every channel on two CPUs (one SMT server,
 *  one SMT-less SGX machine, so skip rows appear mid-stream), two
 *  trials each, with a couple of override-carrying cells. */
const std::vector<ExperimentSpec> &
registryGrid()
{
    static const std::vector<ExperimentSpec> grid = [] {
        std::vector<ExperimentSpec> specs;
        for (const std::string &channel : allChannelNames()) {
            for (const char *cpu : {"Gold 6226", "E-2288G"}) {
                ExperimentSpec spec;
                spec.channel = channel;
                spec.cpu = cpu;
                spec.seed = 17;
                spec.messageBits = 4;
                // Keep the slow families fast.
                spec.overrides["sgxRounds"] = 400;
                spec.overrides["powerRounds"] = 800;
                for (ExperimentSpec &trial : expandTrials(spec, 2))
                    specs.push_back(std::move(trial));
            }
        }
        // One error row mid-batch: must stream through in order.
        ExperimentSpec bad;
        bad.channel = "nonmt-fast-eviction";
        bad.cpu = "Gold 6226";
        bad.overrides["d"] = 0;
        specs.insert(specs.begin() + 5, bad);
        return specs;
    }();
    return grid;
}

std::string
jsonOf(const std::vector<ExperimentResult> &results)
{
    return JsonSink("stream").render(results);
}

TEST(StreamingRunner, StreamMatchesBatchAtEveryThreadCount)
{
    const auto &specs = registryGrid();
    const std::string batch_json =
        jsonOf(ExperimentRunner(1).run(specs));

    for (const int threads : {1, 4, 8}) {
        const ExperimentRunner runner(threads);
        // Batch API.
        EXPECT_EQ(jsonOf(runner.run(specs)), batch_json) << threads;
        // Streaming API, spec order: identical bytes, and the stream
        // can be serialized row-by-row as it arrives.
        std::vector<ExperimentResult> streamed;
        JsonSink sink("stream");
        std::ostringstream os;
        sink.writeHeader(os);
        runner.run(specs, [&](const ExperimentResult &res) {
            streamed.push_back(res);
            sink.writeRow(res, os);
        });
        sink.writeFooter(os);
        EXPECT_EQ(jsonOf(streamed), batch_json) << threads;
        EXPECT_EQ(os.str(), batch_json) << threads;
    }
}

TEST(StreamingRunner, CompletionOrderDeliversTheSameResultSet)
{
    const auto &specs = registryGrid();
    const auto in_order = ExperimentRunner(1).run(specs);

    std::vector<ExperimentResult> completed;
    ExperimentRunner(4).run(
        specs,
        [&](const ExperimentResult &res) {
            completed.push_back(res);
        },
        StreamOrder::Completion);
    ASSERT_EQ(completed.size(), in_order.size());

    // Re-establish spec order by matching (channel, cpu, seed,
    // overrides) — unique per spec in this grid — then compare bytes.
    const auto key = [](const ExperimentResult &res) {
        std::string k = res.spec.channel + "|" + res.spec.cpu + "|" +
            std::to_string(res.spec.seed);
        for (const auto &[name, value] : res.spec.overrides)
            k += "|" + name + "=" + std::to_string(value);
        return k;
    };
    const auto by_key = [&key](const ExperimentResult &a,
                               const ExperimentResult &b) {
        return key(a) < key(b);
    };
    auto sorted_completed = completed;
    auto sorted_in_order = in_order;
    std::sort(sorted_completed.begin(), sorted_completed.end(),
              by_key);
    std::sort(sorted_in_order.begin(), sorted_in_order.end(), by_key);
    EXPECT_EQ(jsonOf(sorted_completed), jsonOf(sorted_in_order));
}

TEST(StreamingRunner, FreshCoresMatchReusedCores)
{
    const auto &specs = registryGrid();
    ExperimentRunner fresh(4);
    fresh.setCoreReuse(false);
    ASSERT_TRUE(ExperimentRunner().coreReuse());
    EXPECT_EQ(jsonOf(fresh.run(specs)),
              jsonOf(ExperimentRunner(4).run(specs)));
}

TEST(StreamingRunner, ReboundContextMatchesFreshContexts)
{
    // The worker-side primitive, without the pool: one TrialContext
    // rebound across different specs must reproduce fresh contexts.
    ExperimentSpec a;
    a.channel = "nonmt-fast-eviction";
    a.cpu = "Gold 6226";
    a.seed = 5;
    a.messageBits = 6;
    ExperimentSpec b;
    b.channel = "slow-switch";
    b.cpu = "E-2288G";
    b.seed = 9;
    b.messageBits = 6;
    b.overrides["model.lcpStall"] = 4;

    TrialContext reused;
    const auto first = runExperiment(a, reused);
    const auto second = runExperiment(b, reused);
    const auto third = runExperiment(a, reused);

    EXPECT_EQ(jsonOf({first, second, third}),
              jsonOf({runExperiment(a), runExperiment(b),
                      runExperiment(a)}));
}

TEST(StreamingRunner, CallbackExceptionStopsAndPropagates)
{
    std::vector<ExperimentSpec> specs;
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "Gold 6226";
    spec.messageBits = 4;
    for (ExperimentSpec &trial : expandTrials(spec, 24))
        specs.push_back(std::move(trial));

    std::size_t delivered = 0;
    EXPECT_THROW(
        ExperimentRunner(4).run(specs,
                                [&](const ExperimentResult &) {
                                    if (++delivered == 3)
                                        throw std::runtime_error("x");
                                }),
        std::runtime_error);
    EXPECT_EQ(delivered, 3u);
}

TEST(StreamingRunner, WorkersNeverOutrunTheReorderWindow)
{
    // The reorder window is what makes streaming memory-bound: a
    // worker may claim trial i only while i < delivered + window.
    // Install the claim probe, slow the consumer so workers pile up
    // against the window, and check the bound on every single claim.
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "Gold 6226";
    spec.messageBits = 2;
    std::vector<ExperimentSpec> specs;
    ExperimentRunner runner(4);
    const std::size_t window = runner.reorderWindow();
    for (ExperimentSpec &trial :
         expandTrials(spec, static_cast<int>(window) + 40)) {
        specs.push_back(std::move(trial));
    }

    std::atomic<std::size_t> violations{0};
    std::atomic<std::size_t> maxLead{0};
    runner.setTrialProbe(
        [&](std::size_t index, std::size_t delivered) {
            if (index >= delivered + window)
                violations.fetch_add(1);
            const std::size_t lead =
                index > delivered ? index - delivered : 0;
            std::size_t seen = maxLead.load();
            while (lead > seen &&
                   !maxLead.compare_exchange_weak(seen, lead)) {
            }
        });

    std::size_t delivered = 0;
    runner.run(specs, [&](const ExperimentResult &res) {
        EXPECT_TRUE(res.ok);
        ++delivered;
        // A deliberately slow consumer: give workers every chance
        // to race ahead of delivery.
        if (delivered < 8)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });

    EXPECT_EQ(delivered, specs.size());
    EXPECT_EQ(violations.load(), 0u);
    // Sanity: the probe actually observed concurrency (workers got
    // ahead of the consumer at least once), so the bound above was
    // exercised rather than vacuous.
    EXPECT_GT(maxLead.load(), 0u);
    EXPECT_LT(maxLead.load(), window);
}

TEST(StreamingRunner, ProgramCacheOnAndOffAreBitIdentical)
{
    // The prepared-chain cache and the engine's per-trial chunk-table
    // reuse are pure memoisation: the registry-wide grid must render
    // the same bytes with both caching layers forced on and forced
    // off, at every thread count. (Default runs have them on; the
    // off-scope reproduces the rebuild-per-trial behavior.)
    const auto &specs = registryGrid();
    std::string cached_json;
    {
        ProgramCachingScope scope(true);
        cached_json = jsonOf(ExperimentRunner(1).run(specs));
    }
    for (const int threads : {1, 4, 8}) {
        {
            ProgramCachingScope scope(true);
            EXPECT_EQ(jsonOf(ExperimentRunner(threads).run(specs)),
                      cached_json)
                << "cache on, threads=" << threads;
        }
        {
            ProgramCachingScope scope(false);
            EXPECT_EQ(jsonOf(ExperimentRunner(threads).run(specs)),
                      cached_json)
                << "cache off, threads=" << threads;
        }
    }
}

/** Registry-wide quiet grid: every noise knob forced to zero so the
 *  RNG tripwire stays untripped and warm snapshots engage; several
 *  trials per cell so later trials actually restore instead of
 *  calibrating. */
std::vector<ExperimentSpec>
quietSnapshotGrid()
{
    std::vector<ExperimentSpec> specs;
    for (const std::string &channel : allChannelNames()) {
        for (const char *cpu : {"Gold 6226", "E-2288G"}) {
            ExperimentSpec spec;
            spec.channel = channel;
            spec.cpu = cpu;
            spec.seed = 29;
            spec.messageBits = 4;
            spec.overrides = {
                {"model.noiseStddevCycles", 0},
                {"model.spikeProb", 0},
                {"model.jitterPerKcycle", 0},
                {"model.sgxEntryJitterStddev", 0},
                {"model.raplNoiseStddevMicroJoules", 0},
                {"sgxRounds", 400},
                {"powerRounds", 800},
            };
            for (ExperimentSpec &trial : expandTrials(spec, 3))
                specs.push_back(std::move(trial));
        }
    }
    return specs;
}

TEST(StreamingRunner, SnapshotCacheOnAndOffAreBitIdentical)
{
    // The warm-snapshot cache must be pure memoisation: quiet cells
    // (where snapshots engage) and noisy cells (where the tripwire
    // forces a transparent bypass) must both render the same bytes
    // with the cache forced on and forced off, at every thread count.
    // registryGrid() runs with default (non-zero) model noise plus a
    // handful of environment-noise cells — all of it must bypass.
    const auto quiet = quietSnapshotGrid();
    auto noisy = registryGrid();
    for (std::size_t i = 0; i < noisy.size(); i += 7)
        noisy[i].overrides["env.corunner_intensity"] = 0.5;

    std::string quiet_off;
    std::string noisy_off;
    {
        SnapshotCacheScope scope(false);
        quiet_off = jsonOf(ExperimentRunner(1).run(quiet));
        noisy_off = jsonOf(ExperimentRunner(1).run(noisy));
    }

    for (const int threads : {1, 4, 8}) {
        SnapshotCacheScope scope(true);
        clearWarmSnapshotCache();
        const std::uint64_t hits = snapshotCacheHits();
        const std::uint64_t bypasses = snapshotCacheBypasses();
        EXPECT_EQ(jsonOf(ExperimentRunner(threads).run(quiet)),
                  quiet_off)
            << "snapshots on (quiet), threads=" << threads;
        EXPECT_EQ(jsonOf(ExperimentRunner(threads).run(noisy)),
                  noisy_off)
            << "snapshots on (noisy), threads=" << threads;
        if (threads == 1) {
            // Single-threaded the traffic is deterministic: trials
            // 2..3 of every quiet cell restore, and every noisy trial
            // after its cell's first calibrates under a negative
            // entry. (Racing workers can turn hits into extra misses,
            // so only the 1-thread counts are exact.)
            EXPECT_GT(snapshotCacheHits(), hits);
            EXPECT_GT(snapshotCacheBypasses(), bypasses);
        }
    }

    // Leave no cross-test coupling behind: later tests must not see
    // snapshots captured under this test's grids.
    clearWarmSnapshotCache();
}

TEST(StreamingRunner, PeriodSkipOnAndOffAreBitIdentical)
{
    // Steady-state period skipping (sim/period_skip.hh) must be
    // invisible: registry-wide, quiet and noisy, the rows render the
    // same bytes with skipping forced off and on, at every thread
    // count. The MT cells get enough steps to reach the skip path.
    const auto lengthen = [](std::vector<ExperimentSpec> specs) {
        for (ExperimentSpec &spec : specs) {
            if (spec.channel.rfind("mt-", 0) == 0)
                spec.overrides["mtSteps"] = 40;
        }
        return specs;
    };
    const auto quiet = lengthen(quietSnapshotGrid());
    auto noisy = lengthen(registryGrid());
    for (std::size_t i = 0; i < noisy.size(); i += 7)
        noisy[i].overrides["env.corunner_intensity"] = 0.5;

    std::string quiet_off;
    std::string noisy_off;
    {
        PeriodSkipScope scope(false);
        quiet_off = jsonOf(ExperimentRunner(1).run(quiet));
        noisy_off = jsonOf(ExperimentRunner(1).run(noisy));
    }

    for (const int threads : {1, 4, 8}) {
        PeriodSkipScope scope(true);
        obs::CounterScope counters(true);
        const auto quiet_on = ExperimentRunner(threads).run(quiet);
        const auto noisy_on = ExperimentRunner(threads).run(noisy);
        EXPECT_EQ(jsonOf(quiet_on), quiet_off)
            << "skip on (quiet), threads=" << threads;
        EXPECT_EQ(jsonOf(noisy_on), noisy_off)
            << "skip on (noisy), threads=" << threads;
        // And it did engage: every power/SGX/MT row skipped.
        const auto loops = [](const std::string &ch) {
            return ch.rfind("power-", 0) == 0 ||
                ch.rfind("sgx-", 0) == 0 || ch.rfind("mt-", 0) == 0;
        };
        for (const auto *rows : {&quiet_on, &noisy_on}) {
            for (const ExperimentResult &res : *rows) {
                if (res.ok && loops(res.spec.channel)) {
                    EXPECT_GT(res.counters->periodSkips, 0u)
                        << res.spec.channel;
                }
            }
        }
    }
}

TEST(StreamingRunner, CountersOnAndOffAreBitIdentical)
{
    // The obs::CounterSet hooks are purely observational: the
    // registry-wide grid must render the same bytes with counter
    // collection forced on and forced off, at every thread count —
    // the per-trial snapshots land only in ExperimentResult::counters,
    // which no standard sink serializes. This is the overhead
    // contract's correctness half (the 2% throughput half gates in
    // BENCH_runner_throughput.json).
    const auto &specs = registryGrid();
    std::string off_json;
    {
        obs::CounterScope scope(false);
        off_json = jsonOf(ExperimentRunner(1).run(specs));
    }
    for (const int threads : {1, 4, 8}) {
        {
            obs::CounterScope scope(true);
            const auto results = ExperimentRunner(threads).run(specs);
            EXPECT_EQ(jsonOf(results), off_json)
                << "counters on, threads=" << threads;
            // And the snapshots themselves are there for ok trials.
            for (const ExperimentResult &res : results) {
                EXPECT_EQ(res.counters != nullptr, res.ok)
                    << res.spec.channel;
            }
        }
        {
            obs::CounterScope scope(false);
            const auto results = ExperimentRunner(threads).run(specs);
            EXPECT_EQ(jsonOf(results), off_json)
                << "counters off, threads=" << threads;
            for (const ExperimentResult &res : results)
                EXPECT_EQ(res.counters, nullptr);
        }
    }
}

TEST(ResolveTrial, ErrorsSkipsAndSuccessesAreDistinguished)
{
    TrialContext ctx;
    bool skipped = true;

    ExperimentSpec good;
    good.channel = "nonmt-fast-eviction";
    good.cpu = "Gold 6226";
    EXPECT_EQ(resolveTrial(good, ctx, &skipped), "");
    EXPECT_FALSE(skipped);
    EXPECT_TRUE(ctx.bound());
    EXPECT_EQ(ctx.model().name, "Gold 6226");
    EXPECT_EQ(ctx.config().d, 6); // registry default for eviction

    ExperimentSpec skip;
    skip.channel = "mt-eviction";
    skip.cpu = "E-2288G"; // SMT disabled
    EXPECT_NE(resolveTrial(skip, ctx, &skipped), "");
    EXPECT_TRUE(skipped);

    ExperimentSpec bad;
    bad.channel = "nonmt-fast-eviction";
    bad.cpu = "Gold 6226";
    bad.overrides["model.deadlock_kcycles"] = 0;
    const std::string error = resolveTrial(bad, ctx, &skipped);
    EXPECT_NE(error.find("deadlock_kcycles"), std::string::npos);
    EXPECT_FALSE(skipped);

    // The defense's model-level mitigations land in the context's
    // model copy (the resolution pipeline's documented order).
    ExperimentSpec defended = good;
    defended.overrides["defense.rapl_quantum_uj"] = 4096;
    EXPECT_EQ(resolveTrial(defended, ctx, &skipped), "");
    EXPECT_GE(ctx.model().rapl.quantumMicroJoules, 4096.0);
}

TEST(SweepAccumulator, MatchesAggregateSweepOnAShardedSweep)
{
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction", "mt-eviction"};
    sweep.cpus = {"Gold 6226", "E-2288G"};
    sweep.axes = {{"d", {2, 6}},
                  {"env.corunner_intensity", {0.0, 0.5}}};
    sweep.trials = 3;
    sweep.messageBits = 6;
    sweep.seed = 23;

    const auto results = runSweep(sweep, ExperimentRunner(4));
    const auto batch_cells = aggregateSweep(results);

    SweepAccumulator accumulator;
    for (const ExperimentResult &res : results)
        accumulator.add(res);
    EXPECT_EQ(accumulator.resultCount(), results.size());

    const auto &cells = accumulator.cells();
    ASSERT_EQ(cells.size(), batch_cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        EXPECT_EQ(cells[c].label, batch_cells[c].label);
        EXPECT_EQ(cells[c].channel, batch_cells[c].channel);
        EXPECT_EQ(cells[c].cpu, batch_cells[c].cpu);
        EXPECT_EQ(cells[c].overrides, batch_cells[c].overrides);
        EXPECT_EQ(cells[c].trials, batch_cells[c].trials);
        EXPECT_EQ(cells[c].okTrials, batch_cells[c].okTrials);
        EXPECT_EQ(cells[c].skippedTrials,
                  batch_cells[c].skippedTrials);
        EXPECT_EQ(cells[c].errorRate.mean(),
                  batch_cells[c].errorRate.mean());
        EXPECT_EQ(cells[c].errorRate.stddev(),
                  batch_cells[c].errorRate.stddev());
        EXPECT_EQ(cells[c].transmissionKbps.mean(),
                  batch_cells[c].transmissionKbps.mean());
        EXPECT_EQ(cells[c].capacityKbps.mean(),
                  batch_cells[c].capacityKbps.mean());
    }

    // The summary sink streams through the same accumulator: row-by-
    // row feeding must render the same bytes as the batch call.
    SweepSummarySink streamed("t");
    std::ostringstream streamed_os;
    streamed.writeHeader(streamed_os);
    for (const ExperimentResult &res : results)
        streamed.writeRow(res, streamed_os);
    streamed.writeFooter(streamed_os);
    EXPECT_EQ(streamed_os.str(), SweepSummarySink("t").render(results));
}

} // namespace
} // namespace lf
