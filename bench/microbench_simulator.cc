/**
 * @file
 * Simulator/runner microbenchmarks, in two parts:
 *
 *  1. A hand-timed ExperimentRunner throughput section (always runs,
 *     `--smoke` shrinks it for sanitizer CI): trials/sec at 1/4/8
 *     worker threads, emitted as BENCH_runner_throughput.json — the
 *     perf trajectory of the run layer.
 *  2. google-benchmark microbenchmarks of the substrate: core tick
 *     throughput, DSB lookups, per-trial Core construction cost,
 *     end-to-end covert-channel bit cost, and the run-layer
 *     overheads (sweep grid expansion, one full experiment trial).
 *     Skipped in --smoke mode.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include "core/nonmt_channels.hh"
#include "frontend/prepared.hh"
#include "isa/mix_block.hh"
#include "obs/counters.hh"
#include "obs/metrics.hh"
#include "run/report.hh"
#include "run/sinks.hh"
#include "run/sweep.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"
#include "sim/executor.hh"
#include "sim/slot_graph.hh"
#include "sim/snapshot.hh"

namespace lf {
namespace {

// ---- Part 1: runner throughput (BENCH_runner_throughput.json). ----

/** Cheap, valid trial spec: construction overhead must be visible
 *  next to the simulation work, so bits and rounds are minimal. */
ExperimentSpec
throughputSpec()
{
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "E-2288G";
    spec.seed = 7;
    spec.messageBits = 4;
    spec.preambleBits = 4;
    spec.overrides["rounds"] = 2;
    spec.overrides["initIters"] = 2;
    return spec;
}

double
trialsPerSec(const ExperimentRunner &runner,
             const std::vector<ExperimentSpec> &batch, int reps,
             std::vector<double> *samples = nullptr)
{
    using Clock = std::chrono::steady_clock;
    // Best-of-reps: scheduler hiccups only ever slow a rep down, so
    // the max is the least-noisy throughput estimate. The raw
    // per-rep samples are recorded too (--repeat N widens the set)
    // so regressions can be told apart from one lucky/unlucky rep.
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const Clock::time_point start = Clock::now();
        std::size_t delivered = 0;
        runner.run(batch, [&delivered](const ExperimentResult &res) {
            if (res.ok)
                ++delivered;
        });
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start)
                .count();
        if (delivered != batch.size())
            std::fprintf(stderr, "warning: %zu/%zu trials ok\n",
                         delivered, batch.size());
        const double tps = seconds > 0.0
            ? static_cast<double>(batch.size()) / seconds
            : 0.0;
        if (samples != nullptr)
            samples->push_back(tps);
        best = std::max(best, tps);
    }
    return best;
}

/** The snapshot-gate cell: the throughput spec made quiet (every
 *  noise knob zeroed, so the RNG tripwire stays untripped) with the
 *  >= 32-bit calibration preamble the gate specifies — a batch whose
 *  repeated calibration the warm snapshots exist to amortize. */
ExperimentSpec
snapshotSpec()
{
    ExperimentSpec spec = throughputSpec();
    spec.preambleBits = 32;
    spec.overrides["model.noiseStddevCycles"] = 0;
    spec.overrides["model.spikeProb"] = 0;
    spec.overrides["model.jitterPerKcycle"] = 0;
    spec.overrides["model.sgxEntryJitterStddev"] = 0;
    spec.overrides["model.raplNoiseStddevMicroJoules"] = 0;
    return spec;
}

/** Direct restore-vs-replay comparison: nanoseconds to restore a
 *  captured WarmSnapshot onto a live context vs to re-run the
 *  calibration it replaces — the per-trial work the snapshot cache
 *  saves. Returns false if the cell unexpectedly fails to snapshot
 *  (the caller turns that into a failed shape check). */
bool
measureSnapshotRestore(int iters, int reps, double &restore_ns,
                       double &replay_ns)
{
    using Clock = std::chrono::steady_clock;
    // Calibrate with the cell's slot graph, as a runner trial does:
    // the quiet cell replays its slots from it.
    SlotGraph graph;
    std::optional<TrialContext> resolved;
    const ExperimentSpec spec = snapshotSpec();
    if (!resolveTrial(spec, resolved, nullptr, &graph).empty())
        return false;
    TrialContext &ctx = *resolved;
    const auto channel = makeChannel(spec.channel, ctx);
    const CovertChannel::Calibration calib = channel->calibrate(ctx);
    if (!calib.rngUntouched)
        return false;
    const WarmSnapshotPtr snap = captureWarmSnapshot(ctx, calib);
    if (!snap)
        return false;
    restore_ns = 0.0;
    replay_ns = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < iters; ++i) {
            restoreWarmSnapshot(ctx, *snap);
            benchmark::DoNotOptimize(ctx.core().cycle());
        }
        const double restore =
            std::chrono::duration<double, std::nano>(Clock::now() -
                                                     start)
                .count() / iters;
        start = Clock::now();
        for (int i = 0; i < iters; ++i) {
            benchmark::DoNotOptimize(
                channel->calibrate(ctx).preambleBits);
        }
        const double replay =
            std::chrono::duration<double, std::nano>(Clock::now() -
                                                     start)
                .count() / iters;
        if (rep == 0 || restore < restore_ns)
            restore_ns = restore;
        if (rep == 0 || replay < replay_ns)
            replay_ns = replay;
    }
    return true;
}

int
emitRunnerThroughput(bool smoke, int repeat)
{
    const int trials = smoke ? 64 : 256;
    const int reps = repeat > 0 ? repeat : (smoke ? 1 : 3);
    const auto batch = expandTrials(throughputSpec(), trials);
    const unsigned hw_threads = std::thread::hardware_concurrency();

    bench::banner("Runner throughput");
    bench::JsonReport report("runner_throughput");
    report.integer("trials", trials);
    report.integer("message_bits", 4);
    report.integer("hw_threads", static_cast<long long>(hw_threads));
    report.integer("repeat", reps);
    report.boolean("smoke", smoke);

    double reused_t1 = 0.0;
    double reused_t4 = 0.0;
    double reused_t8 = 0.0;
    std::printf("%8s  %18s\n", "threads", "trials/s");
    for (const int threads : {1, 4, 8}) {
        std::vector<double> reused_samples;
        const double reused_tps = trialsPerSec(
            ExperimentRunner(threads), batch, reps, &reused_samples);
        std::printf("%8d  %18.1f\n", threads, reused_tps);
        const std::string tag = "_t" + std::to_string(threads);
        report.number("reused" + tag + "_trials_per_sec", reused_tps);
        report.numberArray("reused" + tag + "_samples",
                           reused_samples);
        if (threads == 1)
            reused_t1 = reused_tps;
        if (threads == 4)
            reused_t4 = reused_tps;
        if (threads == 8)
            reused_t8 = reused_tps;
    }

    // Legacy hot path, measured in-run: the program cache off
    // rebuilds and re-decodes every chain once per trial (the engine
    // still memoises a decode across rebinds within a trial, and
    // snapshots disengage). The ratio checks that the program cache
    // still pays for itself.
    double legacy_t1 = 0.0;
    {
        ProgramCachingScope scope(false);
        legacy_t1 = trialsPerSec(ExperimentRunner(1), batch, reps);
    }
    const double cache_speedup =
        legacy_t1 > 0.0 ? reused_t1 / legacy_t1 : 0.0;
    std::printf("\nsingle-thread hot path: tuned %.1f trials/s,"
                " legacy (no program cache) %.1f trials/s"
                " (%.2fx)\n", reused_t1, legacy_t1, cache_speedup);
    report.number("legacy_t1_trials_per_sec", legacy_t1);
    report.number("tuned_over_legacy_t1", cache_speedup);

    // Counter collection (docs/OBSERVABILITY.md), measured in the same
    // run as the counters-off figure above and reported, not gated:
    // opting into counters buys the data with one CounterSet copy per
    // trial.
    double counters_on_t1 = 0.0;
    {
        obs::CounterScope scope(true);
        counters_on_t1 = trialsPerSec(ExperimentRunner(1), batch, reps);
    }
    std::printf("counters on: %.1f trials/s (off: %.1f)\n",
                counters_on_t1, reused_t1);
    report.number("counters_off_t1_trials_per_sec", reused_t1);
    report.number("counters_on_t1_trials_per_sec", counters_on_t1);

    // Warm-snapshot section (sim/snapshot.hh): one quiet sweep cell
    // with a 32-bit calibration preamble, run with the cache off
    // (every trial calibrates cold) and on (the first trial
    // calibrates, the rest restore). Same batch, bit-identical
    // results — the ratio is pure calibration amortization.
    const auto snap_batch = expandTrials(snapshotSpec(), trials);
    double snap_off_t1 = 0.0;
    double snap_on_t1 = 0.0;
    std::vector<double> snap_off_samples;
    std::vector<double> snap_on_samples;
    {
        SnapshotCacheScope scope(false);
        snap_off_t1 = trialsPerSec(ExperimentRunner(1), snap_batch,
                                   reps, &snap_off_samples);
    }
    {
        SnapshotCacheScope scope(true);
        clearWarmSnapshotCache();
        snap_on_t1 = trialsPerSec(ExperimentRunner(1), snap_batch,
                                  reps, &snap_on_samples);
        clearWarmSnapshotCache();
    }
    const double snapshot_speedup =
        snap_off_t1 > 0.0 ? snap_on_t1 / snap_off_t1 : 0.0;
    double restore_ns = 0.0;
    double replay_ns = 0.0;
    const bool snap_measured = measureSnapshotRestore(
        smoke ? 200 : 2000, smoke ? 2 : 5, restore_ns, replay_ns);
    std::printf("warm snapshots (32-bit preamble): on %.1f trials/s,"
                " off %.1f trials/s (%.2fx); restore %.0f ns vs"
                " replayed calibration %.0f ns\n",
                snap_on_t1, snap_off_t1, snapshot_speedup, restore_ns,
                replay_ns);
    report.integer("snapshot_preamble_bits", 32);
    report.number("snapshot_off_t1_trials_per_sec", snap_off_t1);
    report.number("snapshot_on_t1_trials_per_sec", snap_on_t1);
    report.numberArray("snapshot_off_t1_samples", snap_off_samples);
    report.numberArray("snapshot_on_t1_samples", snap_on_samples);
    report.number("snapshot_speedup_t1", snapshot_speedup);
    report.number("snapshot_restore_ns", restore_ns);
    report.number("snapshot_replay_ns", replay_ns);

    // Thundering-herd regression check, made deterministic: with a
    // batch smaller than the reorder window no worker can ever be a
    // full window ahead of delivery, so no worker ever parks and a
    // correct runner issues exactly zero wakeup broadcasts —
    // independent of scheduling, core count or consumer speed. A
    // runner that woke every worker once per delivered row would show
    // here directly.
    obs::RunMetrics stats;
    {
        ExperimentRunner herd(4);
        herd.setMetricsSink(&stats);
        const int herd_rows = static_cast<int>(herd.reorderWindow()) - 8;
        const auto herd_batch =
            expandTrials(throughputSpec(), herd_rows);
        herd.run(herd_batch, [](const ExperimentResult &) {});
        std::printf("coordination (t4, %d rows < window %zu): %llu"
                    " worker parks, %llu consumer parks, %llu wake"
                    " broadcasts\n",
                    herd_rows, herd.reorderWindow(),
                    static_cast<unsigned long long>(stats.workerParks),
                    static_cast<unsigned long long>(
                        stats.consumerParks),
                    static_cast<unsigned long long>(
                        stats.wakeBroadcasts));
    }
    report.integer("herd_worker_parks",
                   static_cast<long long>(stats.workerParks));
    report.integer("herd_consumer_parks",
                   static_cast<long long>(stats.consumerParks));
    report.integer("herd_wake_broadcasts",
                   static_cast<long long>(stats.wakeBroadcasts));

    // Thread-scaling ratios, reported: on a host without 4 (8)
    // hardware threads the run oversubscribes and the ratio says
    // nothing about the runner — emit an explicit JSON null ("not
    // measurable here"), never a misleading sub-1.0 number.
    if (hw_threads >= 4) {
        report.number("t4_over_t1",
                      reused_t1 > 0.0 ? reused_t4 / reused_t1 : 0.0);
    } else {
        report.nullValue("t4_over_t1");
    }
    if (hw_threads >= 8) {
        report.number("t8_over_t1",
                      reused_t1 > 0.0 ? reused_t8 / reused_t1 : 0.0);
    } else {
        report.nullValue("t8_over_t1");
    }

    report.writeFile(benchJsonFileName("runner_throughput"));
    std::printf("\nwrote %s\n",
                benchJsonFileName("runner_throughput").c_str());
    int rc = 0;
    // The herd check is structural (see above), so it gates even
    // under --smoke; the timing gates below are skipped there
    // (sanitizer/debug timing skew).
    rc |= bench::shapeCheck("sub-window batch issues zero wakeup"
                            " broadcasts (no thundering herd)",
                            stats.wakeBroadcasts == 0 &&
                                stats.workerParks == 0);
    if (smoke)
        return rc;
    rc |= bench::shapeCheck("program/chunk cache still pays on the"
                            " single-thread hot path (>= 1.2x)",
                            cache_speedup >= 1.2);
    rc |= bench::shapeCheck("warm-snapshot restore is cheaper than"
                            " replaying the calibration",
                            snap_measured && restore_ns < replay_ns);
    rc |= bench::shapeCheck("snapshot cache >= 1.3x on the"
                            " 32-bit-preamble batch (t1)",
                            snapshot_speedup >= 1.3);
    // Thread scaling needs the hardware to scale on; on smaller CI
    // boxes the values above are still emitted for the trajectory.
    if (hw_threads >= 8) {
        rc |= bench::shapeCheck("8-thread throughput >= 3x"
                                " single-thread",
                                reused_t8 >= 3.0 * reused_t1);
    } else {
        std::printf("Shape check (8-thread throughput >= 3x"
                    " single-thread): skipped (host too small: %u"
                    " hardware threads < 8)\n", hw_threads);
    }
    return rc;
}

// ---- Part 2: google-benchmark substrate microbenchmarks. ----

void
BM_CoreTickDsbLoop(benchmark::State &state)
{
    Core core(gold6226(), 1);
    std::vector<BlockSpec> specs;
    for (int i = 0; i < 8; ++i)
        specs.push_back({i, false});
    const auto chain = buildMixBlockChain(0x400000, 5, specs);
    core.setProgram(0, &chain.program);
    runLoopIters(core, 0, chain, 30);
    for (auto _ : state)
        core.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreTickDsbLoop);

void
BM_CoreTickSmtContention(benchmark::State &state)
{
    Core core(gold6226(), 1);
    const auto attacker = buildNopLoop(0x100000, 100);
    std::vector<BlockSpec> specs;
    for (int i = 0; i < 9; ++i)
        specs.push_back({i, false});
    const auto victim = buildMixBlockChain(0x400000, 5, specs);
    core.setProgram(0, &attacker.program);
    core.setProgram(1, &victim.program);
    core.runCycles(1000);
    for (auto _ : state)
        core.tick();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreTickSmtContention);

void
BM_DsbLookup(benchmark::State &state)
{
    FrontendParams params;
    Dsb dsb(params);
    for (int i = 0; i < 256; ++i)
        dsb.insert(0, static_cast<Addr>(i) * 32, 5);
    Addr key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dsb.lookup(0, key));
        key = (key + 32) % (256 * 32);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DsbLookup);

void
BM_CoreConstruct(benchmark::State &state)
{
    const CpuModel &model = xeonE2288G();
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Core core(model, seed++);
        benchmark::DoNotOptimize(core.cycle());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreConstruct);

void
BM_ChannelBit(benchmark::State &state)
{
    Core core(xeonE2288G(), 1);
    ChannelConfig cfg;
    cfg.d = 6;
    NonMtEvictionChannel channel(core, cfg);
    channel.setup();
    bool bit = false;
    SlotRaw raw;
    for (auto _ : state) {
        raw.cycles.clear();
        channel.transmitBit(bit, raw);
        benchmark::DoNotOptimize(channel.measure(raw));
        bit = !bit;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelBit);

void
BM_SweepExpansion(benchmark::State &state)
{
    SweepSpec sweep;
    sweep.channels = allChannelNames();
    for (const CpuModel *cpu : allCpuModels())
        sweep.cpus.push_back(cpu->name);
    sweep.axes = {{"d", {1, 2, 3, 4, 5, 6, 7, 8}}};
    sweep.trials = 4;
    std::size_t specs = 0;
    for (auto _ : state) {
        const auto batch = expandSweep(sweep);
        benchmark::DoNotOptimize(batch.data());
        specs = batch.size();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(specs));
}
BENCHMARK(BM_SweepExpansion);

void
BM_RunExperimentTrial(benchmark::State &state)
{
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "E-2288G";
    spec.messageBits = 8;
    for (auto _ : state) {
        const auto res = runExperiment(spec);
        benchmark::DoNotOptimize(res.ok);
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_RunExperimentTrial);

} // namespace
} // namespace lf

int
main(int argc, char **argv)
{
    bool smoke = false;
    int repeat = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        // Strip our own flags: google-benchmark rejects unknown ones.
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
            continue;
        }
        if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
            repeat = std::atoi(argv[++i]);
            if (repeat < 1) {
                std::fprintf(stderr,
                             "--repeat needs a positive count\n");
                return 1;
            }
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;

    const int throughput_rc = lf::emitRunnerThroughput(smoke, repeat);
    if (smoke)
        return throughput_rc;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return throughput_rc;
}
