/**
 * @file
 * Warm-snapshot unit tests: the RNG-draw tripwire must fire exactly
 * when a trial's environment/defense/model is stochastic, the
 * reported preamble length must be identical on the cold and the
 * restore path, and the cache accounting must follow the
 * miss -> hit / miss -> bypass state machine. (The registry-wide
 * bit-identity contract lives in tests/run/test_streaming.cc.)
 */

#include <gtest/gtest.h>

#include <optional>

#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "run/experiment.hh"
#include "sim/slot_graph.hh"
#include "sim/snapshot.hh"

namespace lf {
namespace {

/** A quiet cell: every model-noise knob zeroed, default (quiet)
 *  environment, no defense — calibration must not draw. */
ExperimentSpec
quietSpec()
{
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "Gold 6226";
    spec.seed = 11;
    spec.messageBits = 4;
    spec.overrides = {
        {"model.noiseStddevCycles", 0},
        {"model.spikeProb", 0},
        {"model.jitterPerKcycle", 0},
        {"model.sgxEntryJitterStddev", 0},
        {"model.raplNoiseStddevMicroJoules", 0},
    };
    return spec;
}

/** Resolve @p spec and run just the calibration phase, with a fresh
 *  cell graph as a runner trial has. */
CovertChannel::Calibration
calibrationOf(const ExperimentSpec &spec)
{
    SlotGraph graph;
    std::optional<TrialContext> ctx;
    EXPECT_EQ(resolveTrial(spec, ctx, nullptr, &graph), "");
    auto channel = makeChannel(spec.channel, *ctx);
    return channel->calibrate(*ctx);
}

TEST(SnapshotTripwire, QuietConfigurationLeavesRngUntouched)
{
    const auto calib = calibrationOf(quietSpec());
    EXPECT_TRUE(calib.rngUntouched);
}

TEST(SnapshotTripwire, ModelNoiseTrips)
{
    // The CPU models' default timing noise is non-zero: without the
    // zeroing overrides every measurement draws.
    ExperimentSpec spec = quietSpec();
    spec.overrides.clear();
    EXPECT_FALSE(calibrationOf(spec).rngUntouched);
}

TEST(SnapshotTripwire, StochasticEnvironmentTrips)
{
    ExperimentSpec spec = quietSpec();
    spec.overrides["env.corunner_intensity"] = 0.5;
    EXPECT_FALSE(calibrationOf(spec).rngUntouched);
}

TEST(SnapshotTripwire, StochasticDefenseTrips)
{
    ExperimentSpec spec = quietSpec();
    spec.overrides["defense.randomize_sets"] = 1;
    spec.overrides["defense.randomize_epoch_slots"] = 1;
    EXPECT_FALSE(calibrationOf(spec).rngUntouched);
}

TEST(SnapshotTripwire, DeterministicDefenseDoesNotTrip)
{
    // A defense with only deterministic mitigations (static DSB
    // partitioning) reconfigures the machine but never draws: those
    // cells stay snapshottable.
    ExperimentSpec spec = quietSpec();
    spec.overrides["defense.partition_dsb"] = 1;
    EXPECT_TRUE(calibrationOf(spec).rngUntouched);
}

TEST(SnapshotCache, PreambleBitsIdenticalOnColdAndRestorePaths)
{
    SnapshotCacheScope scope(true);
    clearWarmSnapshotCache();

    ExperimentSpec spec = quietSpec();
    spec.preambleBits = 32;

    // Trial 0 calibrates cold and publishes; trial 1 restores.
    const std::uint64_t hits = snapshotCacheHits();
    const auto cold = runExperiment(spec);
    spec.trial = 1;
    spec.seed = deriveTrialSeed(spec.seed, 1);
    const auto warm = runExperiment(spec);
    ASSERT_TRUE(cold.ok);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(snapshotCacheHits(), hits + 1);

    EXPECT_EQ(cold.result.preambleBits, 32);
    EXPECT_EQ(warm.result.preambleBits, 32);
    EXPECT_EQ(cold.result.meanObs0, warm.result.meanObs0);
    EXPECT_EQ(cold.result.meanObs1, warm.result.meanObs1);
    // The per-trial identity still comes from the trial, not the
    // snapshot donor.
    EXPECT_EQ(warm.result.seed, spec.seed);

    clearWarmSnapshotCache();
}

TEST(SnapshotCache, MissThenHitAndMissThenBypassAccounting)
{
    SnapshotCacheScope scope(true);
    clearWarmSnapshotCache();

    const std::uint64_t hits = snapshotCacheHits();
    const std::uint64_t misses = snapshotCacheMisses();
    const std::uint64_t bypasses = snapshotCacheBypasses();

    // Quiet cell: miss, then hit.
    for (ExperimentSpec &trial : expandTrials(quietSpec(), 2))
        ASSERT_TRUE(runExperiment(trial).ok);
    EXPECT_EQ(snapshotCacheMisses(), misses + 1);
    EXPECT_EQ(snapshotCacheHits(), hits + 1);
    EXPECT_EQ(snapshotCacheBypasses(), bypasses);

    // Stochastic cell: miss marks a negative entry, then bypass.
    ExperimentSpec noisy = quietSpec();
    noisy.overrides["env.corunner_intensity"] = 0.5;
    for (ExperimentSpec &trial : expandTrials(noisy, 2))
        ASSERT_TRUE(runExperiment(trial).ok);
    EXPECT_EQ(snapshotCacheMisses(), misses + 2);
    EXPECT_EQ(snapshotCacheHits(), hits + 1);
    EXPECT_EQ(snapshotCacheBypasses(), bypasses + 1);

    // Disabled: no lookups, no accounting.
    {
        SnapshotCacheScope off(false);
        ASSERT_TRUE(runExperiment(quietSpec()).ok);
    }
    EXPECT_EQ(snapshotCacheMisses(), misses + 2);
    EXPECT_EQ(snapshotCacheHits(), hits + 1);

    clearWarmSnapshotCache();
}

} // namespace
} // namespace lf
