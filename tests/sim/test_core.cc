/** @file Tests for the Core, CPU models, TSC noise, and RAPL. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "isa/mix_block.hh"
#include "power/energy_model.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"
#include "sim/executor.hh"

namespace lf {
namespace {

TEST(CpuModels, TableOneProperties)
{
    EXPECT_EQ(allCpuModels().size(), 4u);
    EXPECT_EQ(smtCpuModels().size(), 3u);
    EXPECT_EQ(sgxCpuModels().size(), 3u);

    EXPECT_TRUE(gold6226().lsdEnabled());
    EXPECT_FALSE(gold6226().sgx.supported);
    EXPECT_FALSE(xeonE2174G().lsdEnabled());
    EXPECT_FALSE(xeonE2286G().lsdEnabled());
    EXPECT_TRUE(xeonE2288G().lsdEnabled());
    EXPECT_FALSE(xeonE2288G().smtEnabled); // Azure instance
    EXPECT_DOUBLE_EQ(gold6226().freqGhz, 2.7);
    EXPECT_DOUBLE_EQ(xeonE2286G().freqGhz, 4.0);
}

TEST(CpuModels, LookupByName)
{
    EXPECT_EQ(&cpuModelByName("Gold 6226"), &gold6226());
    EXPECT_EQ(&cpuModelByName("E-2288G"), &xeonE2288G());
}

TEST(Core, RunUntilRetiredCountsExactly)
{
    Core core(gold6226());
    const auto loop = buildNopLoop(0x100000, 20);
    core.setProgram(0, &loop.program);
    const auto before = core.counters(0).retiredInsts;
    core.runUntilRetired(0, 63);
    EXPECT_GE(core.counters(0).retiredInsts - before, 63u);
}

/** The TrialError message @p run throws, or "" when it returns. */
template <class F>
std::string
trialErrorOf(F run)
{
    try {
        run();
    } catch (const TrialError &e) {
        return e.what();
    }
    return "";
}

TEST(Core, HaltedThreadFailsTheTrial)
{
    Core core(gold6226());
    Assembler as(0x1000);
    as.mov();
    as.halt();
    Program p = as.take();
    core.setProgram(0, &p);
    core.runUntilRetired(0, 1);
    EXPECT_NE(trialErrorOf([&] { core.runUntilRetired(0, 5); })
                  .find("halted"),
              std::string::npos);
}

TEST(Core, NoisyMeasurementStatistics)
{
    Core core(gold6226(), 5);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(core.noisyMeasurement(1000.0));
    // Mean = true + overhead (plus small spike inflation).
    const double expected =
        1000.0 + static_cast<double>(gold6226().noise.tscOverhead);
    EXPECT_NEAR(stats.mean(), expected, 12.0);
    EXPECT_GT(stats.stddev(), 3.0);
}

TEST(Core, SecondsOfUsesModelFrequency)
{
    Core core(gold6226());
    EXPECT_DOUBLE_EQ(core.secondsOf(2.7e9), 1.0);
    Core fast(xeonE2286G());
    EXPECT_DOUBLE_EQ(fast.secondsOf(4.0e9), 1.0);
}

TEST(Core, RaplAccumulatesEnergy)
{
    Core core(gold6226(), 3);
    const auto loop = buildNopLoop(0x100000, 100);
    core.setProgram(0, &loop.program);
    const MicroJoules e0 = core.readRapl();
    core.runCycles(2'000'000); // many RAPL intervals
    const MicroJoules e1 = core.readRapl();
    EXPECT_GT(e1, e0);
    // Sanity: implied power in a plausible package band.
    const double watts =
        (e1 - e0) * 1e-6 / core.secondsOf(2'000'000.0);
    EXPECT_GT(watts, 30.0);
    EXPECT_LT(watts, 100.0);
}

TEST(Core, EnclaveTransitionAdvancesTimeAndFlushes)
{
    Core core(xeonE2174G(), 4);
    const auto loop = buildNopLoop(0x100000, 100);
    core.setProgram(0, &loop.program);
    runLoopIters(core, 0, loop, 10);
    const Cycles before = core.cycle();
    core.enclaveEntry(0);
    EXPECT_GT(core.cycle() - before, 1000u);
    EXPECT_EQ(core.frontend().idqOccupancy(0), 0);
}

TEST(EnergyModel, PathOrdering)
{
    const EnergyModel model(EnergyParams{}, 2.7);
    PerfCounters lsd;
    lsd.uopsLsd = 1000;
    PerfCounters dsb;
    dsb.uopsDsb = 1000;
    PerfCounters mite;
    mite.uopsMite = 1000;
    const Cycles window = 500;
    EXPECT_LT(model.energyOf(lsd, window), model.energyOf(dsb, window));
    EXPECT_LT(model.energyOf(dsb, window), model.energyOf(mite, window));
}

TEST(EnergyModel, StaticPowerDominatesIdle)
{
    const EnergyModel model(EnergyParams{}, 2.7);
    const PerfCounters idle;
    const double watts = model.averagePowerWatts(idle, 27000);
    EXPECT_NEAR(watts, EnergyParams{}.staticWatts, 1e-6);
}

TEST(Core, DeadlockGuardUsesModelKnob)
{
    CpuModel model = gold6226();
    ASSERT_TRUE(applyModelOverride(model, "model.deadlock_kcycles", 2));
    EXPECT_EQ(model.deadlockKcycles, 2u);
    Core core(model, 1);
    // A 2-kcycle guard cannot cover a million retirements: the run
    // must be declared stuck by the model knob, not the old 50M
    // constant.
    const auto loop = buildNopLoop(0x100000, 50);
    core.setProgram(0, &loop.program);
    EXPECT_NE(trialErrorOf([&] { core.runUntilRetired(0, 1'000'000); })
                  .find("stuck"),
              std::string::npos);
}

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DeterminismSweep, SameSeedSameTiming)
{
    auto run = [&] {
        Core core(gold6226(), GetParam());
        std::vector<BlockSpec> specs;
        for (int i = 0; i < 6; ++i)
            specs.push_back({i, false});
        const auto chain = buildMixBlockChain(0x400000, 5, specs);
        core.setProgram(0, &chain.program);
        runLoopIters(core, 0, chain, 50);
        return std::make_pair(core.cycle(),
                              core.counters(0).uopsLsd);
    };
    EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep,
                         ::testing::Values(1, 7, 42, 1234));

} // namespace
} // namespace lf
