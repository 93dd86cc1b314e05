/**
 * @file
 * The slot-transition graph (sim/slot_graph.hh) must be exact:
 *
 *  - every stored edge, re-simulated from its node's key, gives its
 *    raw records, its counter deltas and its end node's key;
 *  - a canonical key loaded onto smaller clocks keeps the key and
 *    behaves the same (the revisit-at-an-earlier-cycle case), and
 *    whole trials that revisit recorded states earlier end with the
 *    same key, counters and cycle as plain simulation;
 *  - work run plainly at a slot's edge (SlotWalk::plain()) after a
 *    replayed slot sees, and leaves, the core plain simulation would;
 *  - graph on and off give the same sink bytes and per-trial machine
 *    counters registry-wide, quiet and noisy, with and without the
 *    flush-on-switch defense, at 1, 4 and 8 threads;
 *  - power and SGX non-MT cells never replay, and SGX MT and
 *    flush-on-switch cells do.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "obs/counters.hh"
#include "run/experiment.hh"
#include "run/runner.hh"
#include "run/sinks.hh"
#include "sim/executor.hh"
#include "sim/period_skip.hh"
#include "sim/slot_graph.hh"

namespace lf {
namespace {

const std::map<std::string, double> kQuiet = {
    {"model.noiseStddevCycles", 0},
    {"model.spikeProb", 0},
    {"model.jitterPerKcycle", 0},
    {"model.sgxEntryJitterStddev", 0},
    {"model.raplNoiseStddevMicroJoules", 0},
};

bool
isSgxMt(const std::string &channel)
{
    return channel.rfind("sgx-mt-", 0) == 0;
}

/** Channels whose slots never replay: power, SGX non-MT. */
bool
neverReplays(const std::string &channel)
{
    return channel.rfind("power-", 0) == 0 ||
        channel.rfind("sgx-nonmt-", 0) == 0;
}

/** Channels whose slots may replay: non-MT, MT, slow-switch, SGX MT. */
std::vector<std::string>
replayingChannels()
{
    std::vector<std::string> names;
    for (const std::string &name : allChannelNames()) {
        if (!neverReplays(name))
            names.push_back(name);
    }
    return names;
}

ExperimentSpec
specFor(const std::string &channel, const std::string &cpu,
        std::uint64_t seed)
{
    ExperimentSpec spec;
    spec.channel = channel;
    spec.cpu = cpu;
    spec.seed = seed;
    spec.messageBits = 12;
    spec.pattern = MessagePattern::Random;
    spec.overrides = kQuiet;
    spec.overrides["sgxRounds"] = 300;
    spec.overrides["sgxMtSteps"] = 40;
    spec.overrides["powerRounds"] = 600;
    return spec;
}

std::vector<std::uint64_t>
keyOf(const Core &core)
{
    std::vector<std::uint64_t> key;
    core.canonicalKey(key);
    return key;
}

std::vector<std::uint64_t>
countersOf(const Core &core)
{
    std::vector<std::uint64_t> counters;
    core.monotoneCounters(counters);
    return counters;
}

TEST(SlotGraph, EveryStoredEdgeReproducesFromItsNode)
{
    std::size_t edges = 0;
    std::size_t sgx_mt_edges = 0;
    for (const std::string &channel : replayingChannels()) {
        for (const char *cpu : {"Gold 6226", "E-2174G"}) {
            ExperimentSpec base = specFor(channel, cpu, 31);
            // SGX MT edges are learned between jittered enclave
            // entries and exits.
            if (isSgxMt(channel))
                base.overrides.erase("model.sgxEntryJitterStddev");
            if (!channelSupportedOn(channel, *findCpuModel(cpu)))
                continue;
            CellGraph cell;
            for (const ExperimentSpec &spec : expandTrials(base, 3)) {
                const ExperimentResult res = runExperiment(spec, cell);
                ASSERT_TRUE(res.ok || res.skipped) << res.error;
            }
            const SlotGraph *graph = &cell.graph;
            ASSERT_FALSE(cell.key.empty()) << channel;
            ASSERT_GT(graph->nodes(), 1u) << channel << " on " << cpu;

            // Any counters a real run reached will do as the clocks.
            std::optional<TrialContext> ran;
            ASSERT_EQ(resolveTrial(base, ran), "");
            makeChannel(channel, *ran)->transmit(specMessage(base), *ran);
            const std::vector<std::uint64_t> clocks =
                countersOf(ran->core());
            std::vector<std::uint64_t> key;
            for (std::size_t node = 0; node < graph->nodes(); ++node) {
                for (const bool bit : {false, true}) {
                    SlotEdge edge;
                    if (!graph->edge(node, bit, edge))
                        continue;
                    const std::string what = channel + " on " + cpu +
                        " node " + std::to_string(node) + " bit " +
                        (bit ? "1" : "0");
                    SlotGraph empty;
                    std::optional<TrialContext> fresh;
                    ASSERT_EQ(resolveTrial(base, fresh, nullptr, &empty),
                              "");
                    auto ch = makeChannel(channel, *fresh);
                    ch->prepareMachine(*fresh);
                    graph->nodeKey(node, key);
                    Core &core = fresh->core();
                    core.loadCanonicalKey(key, clocks);
                    ASSERT_EQ(keyOf(core), key) << what;

                    const std::vector<std::uint64_t> before =
                        countersOf(core);
                    SlotRaw raw;
                    ch->transmitBit(bit, raw);
                    EXPECT_EQ(raw.cycles, edge.records) << what;
                    graph->nodeKey(edge.next, key);
                    EXPECT_EQ(keyOf(core), key) << what;
                    std::vector<std::uint64_t> delta = countersOf(core);
                    ASSERT_EQ(delta.size(), before.size());
                    for (std::size_t i = 0; i < delta.size(); ++i)
                        delta[i] -= before[i];
                    EXPECT_EQ(delta, edge.counterDelta) << what;
                    ++edges;
                    sgx_mt_edges += isSgxMt(channel) ? 1 : 0;
                }
            }
        }
    }
    EXPECT_GT(edges, 40u);
    EXPECT_GT(sgx_mt_edges, 0u);
}

TEST(SlotGraph, KeyLoadedAtEarlierClocksKeepsKeyAndBehaviour)
{
    // A recorded state revisited at an earlier absolute time: load a
    // core's key onto counters and clocks a third as large. The old
    // LRU stamps sit further below their clock than the new clocks
    // reach, so only their ranks can carry over.
    const CpuModel &model = *findCpuModel("Gold 6226");
    const auto chain = [&](Addr base, int set, int first, int ways) {
        return prepareMixBlockChain(base, set, waySpan(first, ways, false),
                                    model.frontend.dsbLineUops);
    };
    const PreparedChainPtr early = chain(0xc00000, 9, 0, 4);
    const PreparedChainPtr loop = chain(0x400000, 20, 0, 6);
    const PreparedChainPtr other = chain(0x800000, 20, 6, 3);
    Core recorded(model, 3);
    // Lines of a chain run once, first: the oldest stamps.
    recorded.setProgram(0, *early);
    runLoopIters(recorded, 0, *early, 3);
    for (int round = 0; round < 40; ++round) {
        for (const PreparedChainPtr &c : {loop, other}) {
            recorded.setProgram(0, *c);
            runLoopIters(recorded, 0, *c, 3);
        }
    }
    std::vector<std::uint64_t> third = countersOf(recorded);
    for (std::uint64_t &value : third)
        value /= 3;

    Core revisit(model, 3);
    revisit.loadCanonicalKey(keyOf(recorded), third);
    EXPECT_EQ(keyOf(revisit), keyOf(recorded));
    EXPECT_EQ(countersOf(revisit), third);

    const std::vector<std::uint64_t> from_recorded = countersOf(recorded);
    for (int round = 0; round < 5; ++round) {
        for (Core *core : {&recorded, &revisit}) {
            core->setProgram(0, *other);
            runLoopIters(*core, 0, *other, 2);
            core->setProgram(0, *loop);
            runLoopIters(*core, 0, *loop, 2);
        }
        EXPECT_EQ(keyOf(revisit), keyOf(recorded)) << round;
    }
    const std::vector<std::uint64_t> now_recorded = countersOf(recorded);
    const std::vector<std::uint64_t> now_revisit = countersOf(revisit);
    for (std::size_t i = 0; i < third.size(); ++i) {
        EXPECT_EQ(now_revisit[i] - third[i],
                  now_recorded[i] - from_recorded[i])
            << "counter " << i;
    }
}

/** Key, counters and cycle of a context's core after a trial. */
struct TrialEnd
{
    std::vector<std::uint64_t> key;
    std::string counters;
    Cycles cycle = 0;
    std::string row;
};

/** Two trials of one cell on one slot graph: first a message whose 1s
 *  come late, then one that starts with them, so the second trial
 *  reaches states the first recorded at later cycles. */
std::vector<TrialEnd>
lateThenEarly(const std::string &channel, bool graph,
              std::uint64_t *hits)
{
    PeriodSkipScope scope(graph);
    const ExperimentSpec spec = specFor(channel, "Gold 6226", 41);
    std::vector<bool> late(24, false);
    late.insert(late.end(), {true, true, false, true});
    std::vector<bool> early = {true, true, false, true, false};
    std::vector<TrialEnd> ends;
    SlotGraph cell;
    std::optional<TrialContext> ctx;
    for (const std::vector<bool> *message : {&late, &early}) {
        EXPECT_EQ(resolveTrial(spec, ctx, nullptr, &cell), "");
        auto ch = makeChannel(channel, *ctx);
        const ChannelResult result = ch->transmit(*message, *ctx);
        const Core &core = ctx->core();
        obs::CounterSet counters = obs::collectCoreCounters(core);
        counters.periodSkips = 0;
        counters.skippedPeriodCycles = 0;
        ends.push_back({keyOf(core), obs::renderCounterSetJson(counters),
                        core.cycle(),
                        std::to_string(result.seconds) + "|" +
                            std::to_string(result.meanObs0) + "|" +
                            std::to_string(result.meanObs1) + "|" +
                            std::to_string(result.errorRate)});
        if (hits != nullptr)
            *hits = ctx->slotTally().hits;
    }
    return ends;
}

TEST(SlotGraph, EarlierRevisitMatchesPlainSimulation)
{
    for (const char *channel :
         {"nonmt-stealthy-eviction", "mt-misalignment", "slow-switch"}) {
        std::uint64_t hits = 0;
        const auto plain = lateThenEarly(channel, false, nullptr);
        const auto walked = lateThenEarly(channel, true, &hits);
        EXPECT_GT(hits, 0u) << channel;
        ASSERT_EQ(plain.size(), walked.size());
        for (std::size_t t = 0; t < plain.size(); ++t) {
            EXPECT_EQ(walked[t].key, plain[t].key) << channel << t;
            EXPECT_EQ(walked[t].counters, plain[t].counters)
                << channel << t;
            EXPECT_EQ(walked[t].cycle, plain[t].cycle) << channel << t;
            EXPECT_EQ(walked[t].row, plain[t].row) << channel << t;
        }
    }
}

TEST(SlotGraph, PlainWorkAfterAReplayedSlotMatchesPlainSimulation)
{
    // A slot is two chains on thread 0; every third slot is followed
    // by edge work that draws (a jittered enclave entry on thread 1),
    // the way an SGX MT slot ends. One core walks the graph, the
    // other simulates everything.
    const CpuModel &model = *findCpuModel("E-2174G");
    ASSERT_NE(model.sgx.entryJitterStddev, 0.0);
    const auto chain = [&](Addr base, int first, int ways) {
        return prepareMixBlockChain(base, 20, waySpan(first, ways, false),
                                    model.frontend.dsbLineUops);
    };
    const PreparedChainPtr loop = chain(0x400000, 0, 6);
    const PreparedChainPtr other = chain(0x800000, 6, 3);
    const auto work = [&](Core &core, bool bit,
                          std::vector<Cycles> &records) {
        const PreparedChain &encode = bit ? *other : *loop;
        core.setProgram(0, encode);
        records.push_back(runLoopIters(core, 0, encode, 3));
        core.setProgram(0, *loop);
        records.push_back(runLoopIters(core, 0, *loop, 2));
    };
    const auto edge = [](Core &core) { core.enclaveEntry(1); };

    Core plain(model, 5);
    Core walked(model, 5);
    SlotGraph graph;
    SlotTally tally;
    SlotWalk walk(walked, &graph, tally);
    std::size_t plain_after_hit = 0;
    for (int i = 0; i < 60; ++i) {
        const bool bit = (i * 7 % 5) < 2;
        std::vector<Cycles> expected;
        work(plain, bit, expected);
        std::vector<Cycles> records;
        const std::uint64_t hits = tally.hits;
        walk.slot(bit, records, [&] { work(walked, bit, records); });
        EXPECT_EQ(records, expected) << "slot " << i;
        if (i % 3 != 2)
            continue;
        edge(plain);
        walk.plain([&] { edge(walked); });
        plain_after_hit += tally.hits > hits ? 1 : 0;
    }
    walk.sync();
    EXPECT_GT(plain_after_hit, 0u);
    EXPECT_EQ(keyOf(walked), keyOf(plain));
    EXPECT_EQ(countersOf(walked), countersOf(plain));
    EXPECT_EQ(walked.cycle(), plain.cycle());
}

/** Every channel on an SMT server, an SMT SGX desktop part and an
 *  SGX part without SMT, three trials a cell, random messages: quiet
 *  (default quiet model; the replaying channels also on the desktop
 *  part under the flush-on-switch defense at quanta 1, 2, 3 and 255)
 *  or noisy (default model noise, some cells with environment noise
 *  that acts on the core and some with timer noise only). */
std::vector<ExperimentSpec>
registryGrid(bool quiet)
{
    std::vector<ExperimentSpec> specs;
    int cell = 0;
    const auto add = [&](ExperimentSpec spec) {
        if (!quiet) {
            for (const auto &[key, value] : kQuiet)
                spec.overrides.erase(key);
            if (cell % 5 == 1)
                spec.overrides["env.corunner_intensity"] = 0.5;
            if (cell % 5 == 3)
                spec.overrides["env.timer_noise_cycles"] = 40;
        }
        ++cell;
        for (ExperimentSpec &trial : expandTrials(spec, 3))
            specs.push_back(std::move(trial));
    };
    for (const std::string &channel : allChannelNames()) {
        for (const char *cpu : {"Gold 6226", "E-2174G", "E-2288G"})
            add(specFor(channel, cpu, 53));
        if (!quiet || neverReplays(channel))
            continue;
        for (const int quantum : {1, 2, 3, 255}) {
            ExperimentSpec spec = specFor(channel, "E-2174G", 53);
            spec.overrides["defense.flush_switch_quantum"] = quantum;
            add(spec);
        }
    }
    return specs;
}

/** The machine counters of a row: everything but the skip, graph and
 *  cache tallies, which count how the work was done. */
std::string
machineCounters(const ExperimentResult &res)
{
    if (!res.counters)
        return "";
    obs::CounterSet set = *res.counters;
    set.periodSkips = 0;
    set.skippedPeriodCycles = 0;
    set.slotGraphHits = 0;
    set.slotGraphMisses = 0;
    set.slotGraphNodes = 0;
    set.preparedCacheHits = 0;
    set.preparedCacheMisses = 0;
    set.snapshotHits = 0;
    set.snapshotMisses = 0;
    set.snapshotBypasses = 0;
    return obs::renderCounterSetJson(set);
}

TEST(SlotGraph, OnAndOffAreBitIdenticalRegistryWide)
{
    obs::CounterScope counters(true);
    for (const bool quiet : {true, false}) {
        const auto specs = registryGrid(quiet);
        std::vector<ExperimentResult> off;
        {
            PeriodSkipScope scope(false);
            off = ExperimentRunner(1).run(specs);
        }
        const std::string off_json = JsonSink("graph").render(off);
        for (const int threads : {1, 4, 8}) {
            PeriodSkipScope scope(true);
            const auto on = ExperimentRunner(threads).run(specs);
            const std::string what = std::string(quiet ? "quiet" : "noisy") +
                " threads=" + std::to_string(threads);
            EXPECT_EQ(JsonSink("graph").render(on), off_json) << what;
            ASSERT_EQ(on.size(), off.size());
            std::uint64_t hits = 0;
            for (std::size_t i = 0; i < on.size(); ++i) {
                EXPECT_EQ(machineCounters(on[i]), machineCounters(off[i]))
                    << what << " row " << i << " " << on[i].spec.channel;
                if (on[i].counters)
                    hits += on[i].counters->slotGraphHits;
                if (off[i].counters) {
                    EXPECT_EQ(off[i].counters->slotGraphHits +
                                  off[i].counters->slotGraphMisses,
                              0u);
                }
            }
            EXPECT_GT(hits, 0u) << what;
        }
    }
}

TEST(SlotGraph, FlushedCellsReplayButPowerAndSgxNonMtNever)
{
    // Every channel runs under the flush-on-switch defense, whose
    // switch phase is core state.
    obs::CounterScope counters(true);
    std::vector<ExperimentSpec> specs;
    for (const std::string &channel : allChannelNames()) {
        ExperimentSpec spec = specFor(channel, "E-2174G", 59);
        spec.overrides["defense.flush_switch_quantum"] = 1;
        for (ExperimentSpec &trial : expandTrials(spec, 2))
            specs.push_back(std::move(trial));
    }
    std::size_t rows = 0;
    std::size_t replaying_rows = 0;
    for (const ExperimentResult &res : ExperimentRunner(2).run(specs)) {
        if (!res.ok)
            continue;
        ++rows;
        const obs::CounterSet &set = *res.counters;
        if (!neverReplays(res.spec.channel)) {
            ++replaying_rows;
            EXPECT_GT(set.slotGraphHits, 0u) << res.spec.channel;
            continue;
        }
        EXPECT_EQ(set.slotGraphHits, 0u) << res.spec.channel;
        EXPECT_EQ(set.slotGraphMisses, 0u) << res.spec.channel;
        EXPECT_EQ(set.slotGraphNodes, 0u) << res.spec.channel;
    }
    EXPECT_GT(rows, 20u);
    EXPECT_EQ(replaying_rows, 2 * replayingChannels().size());
}

} // namespace
} // namespace lf
