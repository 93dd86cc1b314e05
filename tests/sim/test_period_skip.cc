/**
 * @file
 * Steady-state period skipping (sim/period_skip.hh) must be exact:
 * for every power, SGX and MT channel on every CPU that runs it, and
 * for both bit values, a bit sent with skipping on and off gives the
 * same observable, the same core field for field (live image and the
 * image loaded onto a fresh core), the same counters and cycle count,
 * and the same number of RNG draws. Skipping must actually engage
 * there, also under a flush-on-switch defense. Cycle
 * spans (runSpan) must leave the same core and read the same counts
 * as a plain runCycles() run, wherever their observation points fall.
 * (The registry-wide sink-byte identity lives in
 * tests/run/test_streaming.cc; the fingerprint traces' in
 * tests/fingerprint/test_fingerprint.cc.)
 */

#include <gtest/gtest.h>

#include <optional>
#include <unordered_map>

#include "common/rng.hh"
#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "frontend/prepared.hh"
#include "run/experiment.hh"
#include "sim/cpu_model.hh"
#include "sim/executor.hh"
#include "sim/period_skip.hh"
#include "sim/slot_graph.hh"

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
    SlotGraph graph; // a fresh cell graph, as a runner trial has
    std::optional<TrialContext> ctx;
    EXPECT_EQ(resolveTrial(spec, ctx, nullptr, &graph), "");
    auto channel = makeChannel(spec.channel, *ctx);
    channel->prepareMachine(*ctx);
    SlotRaw raw;
    channel->transmitBit(!bit, raw);
    channel->measure(raw);

    BitOutcome out;
    const std::uint64_t draws = rngThreadDraws();
    raw = SlotRaw{};
    channel->transmitBit(bit, raw);
    out.observable = channel->measure(raw);
    out.draws = rngThreadDraws() - draws;

    const Core &core = ctx->core();
    out.image = core.stateImage();
    Core restored(core.model(), core.seed());
    restored.loadStateImage(core.stateImage());
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

TEST(PeriodSkip, FlushOnSwitchDefenseSkipsIdentically)
{
    // The switch phase is core state, so flushed loops skip too.
    for (const char *channel :
         {"power-eviction", "sgx-mt-eviction", "mt-eviction"}) {
        for (const int quantum : {1, 2, 3, 255}) {
            ExperimentSpec spec = specFor(channel, "E-2174G");
            spec.overrides["defense.flush_switch_quantum"] = quantum;
            for (const bool bit : {false, true}) {
                const std::string what = std::string(channel) + " q=" +
                    std::to_string(quantum) + " bit " +
                    (bit ? "1" : "0");
                const BitOutcome off = sendBit(spec, bit, false);
                const BitOutcome on = sendBit(spec, bit, true);
                // A 255-bind phase cycle is too long for some loops.
                if (quantum < 255) {
                    EXPECT_GT(on.skips, 0u) << what;
                }
                EXPECT_EQ(on.observable, off.observable) << what;
                EXPECT_EQ(on.cycle, off.cycle) << what;
                EXPECT_EQ(on.draws, off.draws) << what;
                EXPECT_TRUE(on.image == off.image) << what;
                EXPECT_TRUE(on.warmImage == off.warmImage) << what;
                expectSameCounters(on.counters, off.counters, what);
            }
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

/** Bind @p chain to thread 0 of @p core, with a sibling loop on
 *  thread 1 when @p sibling is set. */
void
bindPasses(Core &core, const PreparedChain &chain,
           const PreparedChain *sibling)
{
    core.setProgram(0, chain);
    if (sibling != nullptr)
        core.setProgram(1, *sibling);
}

/** Run @p rounds single passes of @p chain on thread 0 of @p core and
 *  no program switch at the end: the IDQ ring, LRU stamps, poison
 *  deadlines and retire stamps are all left mid-flight. Prepared
 *  chains share one decode, so both runs' images hold the same chunk
 *  pointers. */
BitOutcome
runPasses(Core &core, const PreparedChain &chain, std::uint64_t rounds,
          bool skip, std::vector<Cycles> &records)
{
    PeriodSkipScope scope(skip);
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
            Core off_core(xeonE2174G(), 3);
            Core on_core(xeonE2174G(), 3);
            bindPasses(off_core, *chain, other);
            bindPasses(on_core, *chain, other);
            const BitOutcome off =
                runPasses(off_core, *chain, 301, false, off_records);
            const BitOutcome on =
                runPasses(on_core, *chain, 301, true, on_records);
            EXPECT_GT(on.skips, 0u);
            EXPECT_EQ(on_records, off_records);
            EXPECT_EQ(on.cycle, off.cycle);
            EXPECT_TRUE(on.image == off.image);

            // The mid-program image (sibling thread, moved IDQ head)
            // loaded onto a fresh core of the same model, or onto one
            // that ran other code, must run on exactly like its
            // source.
            Core fresh(xeonE2174G(), 11);
            Core used(xeonE2174G(), 11);
            bindPasses(used, *sibling, nullptr);
            std::vector<Cycles> used_records;
            runPasses(used, *sibling, 40, false, used_records);
            for (Core *copy : {&fresh, &used}) {
                copy->loadStateImage(on.image);
                ASSERT_TRUE(copy->stateImage() == on.image);
            }
            std::vector<Cycles> source_more;
            const BitOutcome source_next =
                runPasses(on_core, *chain, 57, false, source_more);
            for (Core *copy : {&fresh, &used}) {
                std::vector<Cycles> copy_more;
                const BitOutcome copy_next =
                    runPasses(*copy, *chain, 57, false, copy_more);
                EXPECT_EQ(copy_more, source_more);
                EXPECT_EQ(copy_next.cycle, source_next.cycle);
                EXPECT_TRUE(copy_next.image == source_next.image);
            }
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

/** The fingerprint attacker's shape: a NOP loop on thread 0 (observed)
 *  beside a looping mix-block chain on thread 1 (probed). */
class SpanSetup
{
  public:
    SpanSetup()
        : nops_(prepareNopLoop(0x100000, 100,
                               gold6226().frontend.dsbLineUops)),
          loop_(prepareMixBlockChain(
              0x800000, 20, {{4, false}, {5, false}, {6, false}},
              gold6226().frontend.dsbLineUops))
    {
    }

    /** A fresh core with both threads bound and warmed a little. */
    std::unique_ptr<Core> core() const
    {
        auto core = std::make_unique<Core>(gold6226(), 3);
        core->setProgram(0, *nops_);
        core->setProgram(1, *loop_);
        core->runCycles(500);
        return core;
    }

    SpanWatch watch() const
    {
        return {1, loop_->chain.instsPerIteration, 0};
    }

  private:
    PreparedChainPtr nops_;
    PreparedChainPtr loop_;
};

/** Where a span's first probe window finds a period: the offset of
 *  the first boundary whose hash an earlier boundary shared, and how
 *  far back that was. Hashing every boundary of a plain run finds it
 *  as the driver does. */
struct FoundPeriod
{
    Cycles at = 0;
    Cycles period = 0;
};

FoundPeriod
findPeriod(Core &core, const SpanWatch &watch)
{
    const std::uint64_t base = core.retiredInsts(watch.loopThread);
    std::unordered_map<std::uint64_t, Cycles> seen;
    Cycles done = 0;
    for (std::uint64_t boundary = 1; done < 1000000;) {
        done += core.runCyclesUntilRetired(
            watch.loopThread, base + boundary * watch.loopInsts,
            1000000 - done);
        boundary = (core.retiredInsts(watch.loopThread) - base) /
                watch.loopInsts + 1;
        const std::uint64_t hash = core.canonicalHash();
        const auto it = seen.find(hash);
        if (it != seen.end())
            return {done, done - it->second};
        seen[hash] = done;
    }
    return {};
}

/** What a span leaves behind. */
struct SpanOutcome
{
    std::vector<std::uint64_t> counts;
    std::vector<std::uint64_t> image;
    Cycles cycle = 0;
    std::uint64_t skips = 0;
    Cycles skippedCycles = 0;
};

SpanOutcome
outcomeOf(const Core &core, std::vector<std::uint64_t> counts)
{
    SpanOutcome out;
    out.counts = std::move(counts);
    out.image = core.stateImage();
    out.cycle = core.cycle();
    out.skips = core.periodSkips();
    out.skippedCycles = core.skippedPeriodCycles();
    return out;
}

/** The reference: plain runCycles() to each point, then to the end. */
SpanOutcome
plainRun(Core &core, Cycles cycles, const std::vector<Cycles> &points,
         ThreadId observed)
{
    std::vector<std::uint64_t> counts;
    Cycles done = 0;
    for (const Cycles point : points) {
        core.runCycles(point - done);
        done = point;
        counts.push_back(core.retiredInsts(observed));
    }
    core.runCycles(cycles - done);
    return outcomeOf(core, std::move(counts));
}

SpanOutcome
spanRun(Core &core, Cycles cycles, const std::vector<Cycles> &points,
        const SpanWatch &watch)
{
    PeriodSkipScope scope(true);
    std::vector<std::uint64_t> counts;
    runSpan(core, cycles, watch, points, counts);
    return outcomeOf(core, std::move(counts));
}

void
expectSameRun(const SpanOutcome &span, const SpanOutcome &plain)
{
    EXPECT_EQ(span.counts, plain.counts);
    EXPECT_EQ(span.cycle, plain.cycle);
    EXPECT_TRUE(span.image == plain.image);
}

TEST(PeriodSkipSpan, MatchesAPlainRunAtEveryKindOfPoint)
{
    const SpanSetup setup;
    const FoundPeriod found =
        findPeriod(*setup.core(), setup.watch());
    ASSERT_GT(found.period, 1u);
    const Cycles p = found.period;
    const Cycles start = found.at; // the confirmation period's start
    // Five skipped periods, then a third of one run plainly.
    const Cycles cycles = start + 6 * p + p / 3;
    const std::vector<Cycles> points = {
        start / 2,               // before the candidate
        start + p / 2,           // inside the confirmation period
        start + p,               // its last cycle
        start + p + 1,           // offset 1 of the first skipped period
        start + 3 * p - 1,       // offset p - 1
        start + 3 * p,           // offset 0
        start + 4 * p + p / 2,   // offset p / 2, also read above
        start + 6 * p,           // the skipped stretch's last cycle
        start + 6 * p + 1,       // the plain remainder
        cycles,                  // the span's last cycle
    };
    auto plain_core = setup.core();
    auto span_core = setup.core();
    const SpanOutcome plain =
        plainRun(*plain_core, cycles, points, 0);
    const SpanOutcome span =
        spanRun(*span_core, cycles, points, setup.watch());
    EXPECT_EQ(span.skips, 1u);
    EXPECT_EQ(span.skippedCycles, 5 * p);
    expectSameRun(span, plain);

    // Every cycle of the span a point: each skipped point is filled
    // from the confirmation period's record.
    std::vector<Cycles> dense;
    for (Cycles c = 1; c <= cycles; ++c)
        dense.push_back(c);
    auto dense_plain_core = setup.core();
    auto dense_span_core = setup.core();
    expectSameRun(spanRun(*dense_span_core, cycles, dense, setup.watch()),
                  plainRun(*dense_plain_core, cycles, dense, 0));
}

TEST(PeriodSkipSpan, ShorterThanThreePeriodsRunsPlainly)
{
    const SpanSetup setup;
    const FoundPeriod found =
        findPeriod(*setup.core(), setup.watch());
    ASSERT_GT(found.period, 1u);
    const Cycles cycles = 3 * found.period - 1;
    const std::vector<Cycles> points = {found.period, cycles};
    auto plain_core = setup.core();
    auto span_core = setup.core();
    const SpanOutcome span =
        spanRun(*span_core, cycles, points, setup.watch());
    EXPECT_EQ(span.skips, 0u);
    expectSameRun(span, plainRun(*plain_core, cycles, points, 0));
}

TEST(PeriodSkipSpan, SiblingHaltingMidSpanRunsOnExactly)
{
    // One pass over eight blocks, then HALT: the probed thread crosses
    // a few block boundaries and stops retiring.
    const int line = gold6226().frontend.dsbLineUops;
    const auto nops = prepareNopLoop(0x100000, 100, line);
    std::vector<BlockSpec> blocks;
    for (int way = 0; way < 8; ++way)
        blocks.push_back({way, false});
    const auto pass = prepareMixBlockPass(0x800000, 20, blocks, line);
    const Cycles cycles = 20000;
    const std::vector<Cycles> points = {10, 5000, cycles};
    Core plain_core(gold6226(), 3);
    Core span_core(gold6226(), 3);
    for (Core *core : {&plain_core, &span_core}) {
        core->setProgram(0, *nops);
        core->setProgram(1, *pass);
    }
    const SpanOutcome span =
        spanRun(span_core, cycles, points, {1, 5, 0});
    EXPECT_GE(span_core.retiredInsts(1), 40u);
    EXPECT_LE(span_core.retiredInsts(1), 41u);
    expectSameRun(span, plainRun(plain_core, cycles, points, 0));
}

} // namespace
} // namespace lf
