/** @file Tests for patch detection and application fingerprinting. */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "fingerprint/patch_detect.hh"
#include "fingerprint/side_channel.hh"
#include "fingerprint/workloads.hh"
#include "sim/cpu_model.hh"
#include "sim/period_skip.hh"

namespace lf {
namespace {

TEST(PatchDetect, PatchMetadata)
{
    EXPECT_TRUE(patch1().lsdEnabled);
    EXPECT_FALSE(patch2().lsdEnabled);
    EXPECT_NE(patch1().name, patch2().name);
}

TEST(PatchDetect, SignaturesDivergeOnlyUnderPatch1)
{
    PatchDetector detector(gold6226());
    const PatchSignature s1 = detector.measure(patch1(), 1);
    const PatchSignature s2 = detector.measure(patch2(), 2);
    // patch1: the small loop streams from the LSD.
    EXPECT_GT(s1.smallLoopLsdShare, 0.9);
    EXPECT_LT(s1.smallLoopCycles, s1.largeLoopCycles * 0.9);
    EXPECT_LT(s1.smallLoopWatts, s1.largeLoopWatts);
    // patch2: the loops behave identically.
    EXPECT_EQ(s2.smallLoopLsdShare, 0.0);
    EXPECT_NEAR(s2.smallLoopCycles, s2.largeLoopCycles,
                s2.largeLoopCycles * 0.08);
}

class PatchDetectSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PatchDetectSeeds, ClassifiesBothPatches)
{
    PatchDetector detector(gold6226());
    EXPECT_TRUE(detector.detectLsdEnabled(patch1(), GetParam()));
    EXPECT_FALSE(detector.detectLsdEnabled(patch2(), GetParam() + 1000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatchDetectSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Workloads, Libraries)
{
    EXPECT_EQ(mobileWorkloads().size(), 10u);
    const auto cnns = cnnWorkloads();
    ASSERT_EQ(cnns.size(), 4u);
    EXPECT_EQ(cnns[0].name(), "AlexNet");
    EXPECT_EQ(cnns[2].name(), "VGG");
    for (const auto &w : cnns) {
        EXPECT_GE(w.numPhases(), 2u);
        EXPECT_GT(w.totalCycles(), 100000u);
        for (std::size_t i = 0; i < w.numPhases(); ++i)
            EXPECT_FALSE(w.phaseProgram(i).empty());
    }
}

TEST(SideChannel, BaselineIpcNearBackendWidth)
{
    TraceConfig config;
    const double ipc = attackerBaselineIpc(gold6226(), config);
    EXPECT_GT(ipc, 4.5);
    EXPECT_LE(ipc, 6.0);
}

TEST(SideChannel, CoRunningVictimHalvesIpc)
{
    TraceConfig config;
    config.samples = 20;
    const double baseline = attackerBaselineIpc(gold6226(), config);
    const auto cnns = cnnWorkloads();
    const auto trace =
        attackerIpcTrace(gold6226(), cnns[0], config, 9);
    double sum = 0.0;
    for (double v : trace)
        sum += v;
    const double paired = sum / static_cast<double>(trace.size());
    EXPECT_LT(paired, baseline * 0.75);
    EXPECT_GT(paired, baseline * 0.3);
}

TEST(SideChannel, SameVictimSimilarTraces)
{
    TraceConfig config;
    config.samples = 40;
    const auto cnns = cnnWorkloads();
    const auto a = attackerIpcTrace(gold6226(), cnns[1], config, 100);
    const auto b = attackerIpcTrace(gold6226(), cnns[1], config, 200);
    const auto c = attackerIpcTrace(gold6226(), cnns[3], config, 300);
    EXPECT_LT(euclideanDistance(a, b), euclideanDistance(a, c));
}

TEST(SideChannel, StudySeparatesCnns)
{
    TraceConfig config;
    config.samples = 60;
    const FingerprintStudy study =
        runFingerprintStudy(gold6226(), cnnWorkloads(), config, 2);
    EXPECT_GT(study.meanInterDistance,
              1.5 * study.meanIntraDistance);
    EXPECT_GE(study.classificationAccuracy, 0.75);
}

TEST(SideChannel, RequiresSmt)
{
    TraceConfig config;
    const auto cnns = cnnWorkloads();
    EXPECT_DEATH(attackerIpcTrace(xeonE2288G(), cnns[0], config, 1),
                 "SMT");
    // The study checks before any worker starts.
    EXPECT_DEATH(runFingerprintStudy(xeonE2288G(), cnns, config, 2),
                 "SMT");
}

TEST(Workloads, ZeroLengthPhaseIsRejected)
{
    // A phase that ends as it starts would never let the phase
    // scheduler move on: the trace would hang.
    EXPECT_DEATH(VictimWorkload("tiny", {{"p", 8, 0, 0}}), "cycles");
}

TEST(SideChannel, OneCyclePhasesWithJitterStillAdvance)
{
    // Negative jitter would floor a 1-cycle phase to 0 cycles; every
    // jittered duration is clamped to at least one. Eight phases make
    // a negative draw all but certain.
    std::vector<WorkloadPhase> phases;
    for (int i = 0; i < 8; ++i)
        phases.push_back({"p", 8 + i, 0, 1});
    const VictimWorkload tiny("tiny", phases);
    TraceConfig config;
    config.samples = 4;
    config.sampleCycles = 2000;
    const auto trace = attackerIpcTrace(gold6226(), tiny, config, 1);
    EXPECT_EQ(trace.size(), 4u);
}

/** Every library victim once. */
std::vector<VictimWorkload>
allVictims()
{
    std::vector<VictimWorkload> victims = mobileWorkloads();
    for (VictimWorkload &cnn : cnnWorkloads())
        victims.push_back(std::move(cnn));
    return victims;
}

/** Short traces (a few phases each) with sample boundaries dense
 *  enough that skipped periods hold several of them. */
TraceConfig
identityConfig()
{
    TraceConfig config;
    config.samples = 16;
    config.sampleCycles = 25000;
    return config;
}

TEST(SideChannel, PeriodSkipOnAndOffGiveIdenticalTraces)
{
    // Static partitioning (lf_repro's defense study) keeps whole-phase
    // spans; the randomize defense re-salts the DSB between samples,
    // so every sample is a span of its own.
    DefenseSpec partition;
    partition.partition.dsb = true;
    partition.partition.lsd = true;
    DefenseSpec randomize;
    randomize.randomize.enabled = true;
    randomize.randomize.epochSlots = 4;
    const std::vector<VictimWorkload> victims = allVictims();
    const TraceConfig config = identityConfig();
    for (const DefenseSpec &defense :
         {DefenseSpec{}, partition, randomize}) {
        for (std::size_t v = 0; v < victims.size(); ++v) {
            std::vector<double> off;
            std::vector<double> on;
            {
                PeriodSkipScope scope(false);
                off = attackerIpcTrace(gold6226(), victims[v], config,
                                       40 + v, defense);
            }
            {
                PeriodSkipScope scope(true);
                on = attackerIpcTrace(gold6226(), victims[v], config,
                                      40 + v, defense);
            }
            EXPECT_EQ(on, off) << victims[v].name();
        }
    }
}

TEST(SideChannel, PeriodSkipOnAndOffGiveIdenticalBaselines)
{
    double off = 0.0;
    {
        PeriodSkipScope scope(false);
        off = attackerBaselineIpc(gold6226(), TraceConfig{});
    }
    PeriodSkipScope scope(true);
    EXPECT_EQ(attackerBaselineIpc(gold6226(), TraceConfig{}), off);
}

TEST(SideChannel, PeriodSkipOnAndOffGiveIdenticalStudies)
{
    const TraceConfig config = identityConfig();
    FingerprintStudy off;
    FingerprintStudy on;
    {
        PeriodSkipScope scope(false);
        off = runFingerprintStudy(gold6226(), mobileWorkloads(), config, 2);
    }
    {
        PeriodSkipScope scope(true);
        on = runFingerprintStudy(gold6226(), mobileWorkloads(), config, 2);
    }
    EXPECT_EQ(on.traces, off.traces);
    EXPECT_EQ(on.distanceMatrix, off.distanceMatrix);
    EXPECT_EQ(on.classificationAccuracy, off.classificationAccuracy);

    // The study records its traces on several threads; each must equal
    // a serial trace with the study's seed (default seed base 1000).
    const std::vector<VictimWorkload> victims = mobileWorkloads();
    ASSERT_EQ(on.traces.size(), victims.size());
    for (std::size_t w = 0; w < victims.size(); ++w) {
        ASSERT_EQ(on.traces[w].size(), 2u);
        for (std::size_t r = 0; r < 2; ++r) {
            EXPECT_EQ(on.traces[w][r],
                      attackerIpcTrace(gold6226(), victims[w], config,
                                       1000 + r * 131 + (w + 1) * 7919))
                << victims[w].name() << " run " << r;
        }
    }
}

} // namespace
} // namespace lf
