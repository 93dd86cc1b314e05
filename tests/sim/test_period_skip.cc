/**
 * @file
 * Steady-state period skipping (sim/period_skip.hh) must be exact:
 * for every power, SGX and MT channel on every CPU that runs it, and
 * for both bit values, a bit sent with skipping on and off gives the
 * same observable, the same core field for field (live image and the
 * saveWarmState() image), the same counters and cycle count, and the
 * same number of RNG draws. Skipping must actually engage there, and
 * never while a flush-on-switch defense is armed. (The registry-wide
 * sink-byte identity lives in tests/run/test_streaming.cc.)
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "frontend/prepared.hh"
#include "run/experiment.hh"
#include "sim/cpu_model.hh"
#include "sim/executor.hh"
#include "sim/period_skip.hh"

namespace lf {
namespace {

/** Round-looping channels: power, SGX (non-MT and MT) and MT. */
std::vector<std::string>
loopingChannels()
{
    std::vector<std::string> names;
    for (const std::string &name : allChannelNames()) {
        if (name.rfind("power-", 0) == 0 || name.rfind("sgx-", 0) == 0 ||
            name.rfind("mt-", 0) == 0)
            names.push_back(name);
    }
    return names;
}

ExperimentSpec
specFor(const std::string &channel, const std::string &cpu)
{
    ExperimentSpec spec;
    spec.channel = channel;
    spec.cpu = cpu;
    spec.seed = 23;
    // Long enough to skip, short enough for the sanitizer builds.
    // The MT default (20 steps) is below kMinSkipRounds.
    spec.overrides = {
        {"powerRounds", 3000},
        {"sgxRounds", 1500},
        {"mtSteps", 48},
    };
    return spec;
}

/** Everything observable about one transmitted bit. */
struct BitOutcome
{
    double observable = 0.0;
    std::vector<std::uint64_t> image;
    std::vector<std::uint64_t> warmImage;
    std::vector<PerfCounters> counters;
    Cycles cycle = 0;
    std::uint64_t draws = 0;
    std::uint64_t skips = 0;
    Cycles skippedCycles = 0;
};

/** Send the other bit value once (so the loop starts from a switched
 *  machine, as in a message), then @p bit, with skipping @p skip. */
BitOutcome
sendBit(const ExperimentSpec &spec, bool bit, bool skip)
{
    PeriodSkipScope scope(skip);
    TrialContext ctx;
    EXPECT_EQ(resolveTrial(spec, ctx), "");
    auto channel = makeChannel(spec.channel, ctx);
    channel->prepareMachine(ctx);
    channel->transmitBit(!bit);

    BitOutcome out;
    const std::uint64_t draws = rngThreadDraws();
    out.observable = channel->transmitBit(bit);
    out.draws = rngThreadDraws() - draws;

    const Core &core = ctx.core();
    out.image = core.stateImage();
    Core restored(core.model(), core.seed());
    restored.restoreWarmState(core.saveWarmState());
    out.warmImage = restored.stateImage();
    for (ThreadId tid = 0; tid < FrontendEngine::kNumThreads; ++tid)
        out.counters.push_back(core.counters(tid));
    out.cycle = core.cycle();
    out.skips = core.periodSkips();
    out.skippedCycles = core.skippedPeriodCycles();
    return out;
}

void
expectSameCounters(const std::vector<PerfCounters> &a,
                   const std::vector<PerfCounters> &b,
                   const std::string &what)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t tid = 0; tid < a.size(); ++tid) {
        PerfCounters::forEachMember([&](std::uint64_t PerfCounters::*m) {
            EXPECT_EQ(a[tid].*m, b[tid].*m) << what << " thread " << tid;
        });
    }
}

TEST(PeriodSkip, EveryLoopingChannelIsExactAndSkips)
{
    int cases = 0;
    for (const std::string &channel : loopingChannels()) {
        for (const CpuModel *model : allCpuModels()) {
            if (!channelSupportedOn(channel, *model))
                continue;
            const ExperimentSpec spec = specFor(channel, model->name);
            for (const bool bit : {false, true}) {
                const std::string what = channel + " on " + model->name +
                    " bit " + (bit ? "1" : "0");
                const BitOutcome off = sendBit(spec, bit, false);
                const BitOutcome on = sendBit(spec, bit, true);
                EXPECT_EQ(off.skips, 0u) << what;
                EXPECT_GT(on.skips, 0u) << what;
                EXPECT_GT(on.skippedCycles, 0u) << what;
                EXPECT_EQ(on.observable, off.observable) << what;
                EXPECT_EQ(on.cycle, off.cycle) << what;
                EXPECT_EQ(on.draws, off.draws) << what;
                EXPECT_TRUE(on.image == off.image) << what;
                EXPECT_TRUE(on.warmImage == off.warmImage) << what;
                expectSameCounters(on.counters, off.counters, what);
                ++cases;
            }
        }
    }
    // 2 power x 4 CPUs, 4 SGX non-MT x 3, 2 SGX MT x 2, 2 MT x 3;
    // two bit values each.
    EXPECT_EQ(cases, 2 * (8 + 12 + 4 + 6));
}

TEST(PeriodSkip, FlushOnSwitchDefenseNeverSkips)
{
    for (const char *channel : {"power-eviction", "sgx-mt-eviction"}) {
        ExperimentSpec spec = specFor(channel, "E-2174G");
        spec.overrides["defense.flush_switch_quantum"] = 3;
        for (const bool bit : {false, true}) {
            const BitOutcome off = sendBit(spec, bit, false);
            const BitOutcome on = sendBit(spec, bit, true);
            EXPECT_EQ(on.skips, 0u) << channel;
            EXPECT_EQ(on.observable, off.observable) << channel;
            EXPECT_TRUE(on.image == off.image) << channel;
        }
    }
}

TEST(PeriodSkip, WholeTrialsAreIdentical)
{
    // Calibration, message phase and slot hooks together, under a
    // noisy environment: the rendered rows must match.
    for (const char *channel :
         {"power-misalignment", "sgx-nonmt-stealthy-eviction",
          "sgx-mt-misalignment"}) {
        ExperimentSpec spec = specFor(channel, "E-2286G");
        spec.messageBits = 6;
        spec.overrides["env.corunner_intensity"] = 0.5;
        ExperimentResult on;
        ExperimentResult off;
        {
            PeriodSkipScope scope(false);
            off = runExperiment(spec);
        }
        {
            PeriodSkipScope scope(true);
            on = runExperiment(spec);
        }
        ASSERT_TRUE(on.ok) << on.error;
        EXPECT_EQ(on.result.received, off.result.received) << channel;
        EXPECT_EQ(on.result.meanObs0, off.result.meanObs0) << channel;
        EXPECT_EQ(on.result.meanObs1, off.result.meanObs1) << channel;
        EXPECT_EQ(on.result.seconds, off.result.seconds) << channel;
    }
}

TEST(PeriodSkip, KeyRanksLruOrderAndLeavesClocksOut)
{
    // The same two DSB lines in the same ways, but b touched the
    // older one again: equal contents, different replacement order,
    // so different keys.
    const Addr first = 0x400000 + 20 * 32;
    const Addr second = first + 1024;
    Core a(gold6226());
    Core b(gold6226());
    for (Core *core : {&a, &b}) {
        core->frontend().dsb().insert(0, first, 5);
        core->frontend().dsb().insert(0, second, 5);
    }
    ASSERT_GE(b.frontend().dsb().lookup(0, first), 0);
    a.frontend().dsb().lookup(0, second); // same statistics as b
    std::vector<std::uint64_t> key_a;
    std::vector<std::uint64_t> key_b;
    a.canonicalKey(key_a);
    b.canonicalKey(key_b);
    EXPECT_NE(key_a, key_b);
    EXPECT_FALSE(a.hasCanonicalKey(key_b));
    EXPECT_NE(a.canonicalHash(), b.canonicalHash());

    // Elapsed time alone is monotone: same key, different image.
    Core idle(gold6226());
    Core fresh(gold6226());
    idle.runCycles(1000);
    std::vector<std::uint64_t> key_fresh;
    fresh.canonicalKey(key_fresh);
    EXPECT_TRUE(idle.hasCanonicalKey(key_fresh));
    EXPECT_EQ(idle.canonicalHash(), fresh.canonicalHash());
    EXPECT_NE(idle.stateImage(), fresh.stateImage());
}

/** Run @p rounds single passes of @p chain on thread 0, with a
 *  sibling loop on thread 1 when @p sibling is set, and no program
 *  switch at the end: the IDQ ring, LRU stamps, poison deadlines and
 *  retire stamps are all left mid-flight. Prepared chains share one
 *  decode, so both runs' images hold the same chunk pointers. */
BitOutcome
runPasses(const PreparedChain &chain, const PreparedChain *sibling,
          std::uint64_t rounds, bool skip, std::vector<Cycles> &records)
{
    PeriodSkipScope scope(skip);
    Core core(xeonE2174G(), 3);
    core.setProgram(0, chain);
    if (sibling != nullptr)
        core.setProgram(1, *sibling);
    runRounds(core, rounds, records, [&](std::vector<Cycles> &out) {
        out.push_back(runLoopIters(core, 0, chain, 1));
    });
    BitOutcome out;
    out.image = core.stateImage();
    out.cycle = core.cycle();
    out.skips = core.periodSkips();
    return out;
}

TEST(PeriodSkip, DriverLeavesTheSameCoreMidProgram)
{
    const int line = xeonE2174G().frontend.dsbLineUops;
    const auto aligned = prepareMixBlockChain(
        0x400000, 20, {{0, false}, {1, false}, {2, false}, {3, false}},
        line);
    const auto misaligned = prepareMixBlockChain(
        0x400000, 20, {{0, false}, {1, true}, {2, true}, {3, false}},
        line);
    const auto sibling = prepareMixBlockChain(
        0x800000, 20, {{4, false}, {5, false}, {6, false}}, line);
    for (const PreparedChain *chain : {aligned.get(), misaligned.get()}) {
        for (const PreparedChain *other :
             {static_cast<const PreparedChain *>(nullptr),
              sibling.get()}) {
            std::vector<Cycles> on_records;
            std::vector<Cycles> off_records;
            const BitOutcome off =
                runPasses(*chain, other, 301, false, off_records);
            const BitOutcome on =
                runPasses(*chain, other, 301, true, on_records);
            EXPECT_GT(on.skips, 0u);
            EXPECT_EQ(on_records, off_records);
            EXPECT_EQ(on.cycle, off.cycle);
            EXPECT_TRUE(on.image == off.image);
        }
    }
}

/** A round that only burns a fixed number of core cycles. */
void
idleRound(Core &core, std::vector<Cycles> &records)
{
    const Cycles start = core.cycle();
    core.runCycles(7);
    records.push_back(core.cycle() - start);
}

TEST(PeriodSkip, DriverSkipsAPureLoopAndKeepsEveryRecord)
{
    Core core(gold6226());
    std::vector<Cycles> records;
    runRounds(core, 1000, records,
              [&](std::vector<Cycles> &out) { idleRound(core, out); });
    EXPECT_EQ(records, std::vector<Cycles>(1000, 7));
    EXPECT_EQ(core.cycle(), 7000u);
    EXPECT_EQ(core.periodSkips(), 1u);
    EXPECT_GT(core.skippedPeriodCycles(), 6000u);
}

TEST(PeriodSkip, DriverRunsShortLoopsPlainly)
{
    Core core(gold6226());
    std::vector<Cycles> records;
    runRounds(core, kMinSkipRounds - 1, records,
              [&](std::vector<Cycles> &out) { idleRound(core, out); });
    EXPECT_EQ(records.size(), kMinSkipRounds - 1);
    EXPECT_EQ(core.periodSkips(), 0u);
}

TEST(PeriodSkip, DriverNeverSkipsARoundThatDraws)
{
    Core core(gold6226());
    Rng rng(5);
    std::uint64_t calls = 0;
    std::vector<Cycles> records;
    runRounds(core, 500, records, [&](std::vector<Cycles> &out) {
        rng.next();
        ++calls;
        idleRound(core, out);
    });
    EXPECT_EQ(calls, 500u);
    EXPECT_EQ(records.size(), 500u);
    EXPECT_EQ(core.periodSkips(), 0u);
}

} // namespace
} // namespace lf
