/**
 * @file
 * ExperimentRunner tests: trial expansion and seeding are
 * deterministic, and a batch produces bit-identical results (and
 * byte-identical sink output) at 1, 2, and 8 worker threads.
 */

#include <gtest/gtest.h>

#include <set>

#include "run/runner.hh"
#include "run/sinks.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

std::vector<ExperimentSpec>
sampleBatch()
{
    std::vector<ExperimentSpec> specs;

    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "Gold 6226";
    spec.seed = 101;
    spec.messageBits = 16;
    specs.push_back(spec);

    spec.channel = "nonmt-stealthy-misalignment";
    spec.cpu = "E-2286G";
    spec.seed = 102;
    specs.push_back(spec);

    spec.channel = "mt-eviction";
    spec.cpu = "E-2174G";
    spec.seed = 103;
    spec.overrides["d"] = 4;
    specs.push_back(spec);

    // Unsupported pair: must come back skipped, in order.
    spec.channel = "mt-eviction";
    spec.cpu = "E-2288G";
    spec.seed = 104;
    specs.push_back(spec);

    spec = ExperimentSpec{};
    spec.channel = "slow-switch";
    spec.cpu = "E-2288G";
    spec.seed = 105;
    spec.messageBits = 16;
    spec.pattern = MessagePattern::Random;
    specs.push_back(spec);

    return specs;
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.spec.channel, b.spec.channel);
    EXPECT_EQ(a.spec.seed, b.spec.seed);
    // Bit-identical payload: exact floating-point equality intended.
    EXPECT_EQ(a.result.sent, b.result.sent);
    EXPECT_EQ(a.result.received, b.result.received);
    EXPECT_EQ(a.result.errorRate, b.result.errorRate);
    EXPECT_EQ(a.result.transmissionKbps, b.result.transmissionKbps);
    EXPECT_EQ(a.result.seconds, b.result.seconds);
    EXPECT_EQ(a.result.meanObs0, b.result.meanObs0);
    EXPECT_EQ(a.result.meanObs1, b.result.meanObs1);
    EXPECT_EQ(a.result.seed, b.result.seed);
    EXPECT_EQ(a.result.preambleBits, b.result.preambleBits);
}

TEST(TrialSeeding, TrialZeroKeepsBaseSeed)
{
    EXPECT_EQ(deriveTrialSeed(42, 0), 42u);
}

TEST(TrialSeeding, TrialsAreDecorrelated)
{
    std::set<std::uint64_t> seeds;
    for (int t = 0; t < 64; ++t)
        seeds.insert(deriveTrialSeed(42, t));
    EXPECT_EQ(seeds.size(), 64u);
}

TEST(TrialSeeding, ExpandTrialsSetsIndexAndSeed)
{
    ExperimentSpec spec;
    spec.channel = "slow-switch";
    spec.cpu = "Gold 6226";
    spec.seed = 9;
    const auto expanded = expandTrials(spec, 4);
    ASSERT_EQ(expanded.size(), 4u);
    for (int t = 0; t < 4; ++t) {
        EXPECT_EQ(expanded[static_cast<std::size_t>(t)].trial, t);
        EXPECT_EQ(expanded[static_cast<std::size_t>(t)].seed,
                  deriveTrialSeed(9, t));
    }
}

TEST(ExperimentRunner, ValidatesBadSpecs)
{
    ExperimentSpec spec;
    spec.channel = "no-such-channel";
    spec.cpu = "Gold 6226";
    const auto res = ExperimentRunner(1).run({spec});
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_FALSE(res[0].skipped);
    EXPECT_NE(res[0].error.find("unknown channel"), std::string::npos);

    spec.channel = "slow-switch";
    spec.cpu = "no-such-cpu";
    const auto res2 = ExperimentRunner(1).run({spec});
    EXPECT_FALSE(res2[0].ok);
    EXPECT_NE(res2[0].error.find("unknown CPU"), std::string::npos);

    // A bad override key must become an error row, not kill the
    // worker pool.
    spec.cpu = "Gold 6226";
    spec.overrides["bogusKnob"] = 1;
    const auto res3 = ExperimentRunner(4).run({spec});
    EXPECT_FALSE(res3[0].ok);
    EXPECT_NE(res3[0].error.find("unknown config override"),
              std::string::npos);
    spec.overrides.clear();

    // Same for an unusably short preamble.
    spec.preambleBits = 1;
    const auto res4 = ExperimentRunner(4).run({spec});
    EXPECT_FALSE(res4[0].ok);
    EXPECT_NE(res4[0].error.find("preamble too short"),
              std::string::npos);
    spec.preambleBits = -1;

    // Out-of-range values that would trip channel-constructor asserts
    // must also become error rows.
    spec.channel = "nonmt-fast-eviction";
    spec.overrides["d"] = 0;
    const auto res5 = ExperimentRunner(4).run({spec});
    EXPECT_FALSE(res5[0].ok);
    EXPECT_NE(res5[0].error.find("out of range"), std::string::npos);

    spec.channel = "nonmt-fast-misalignment";
    spec.overrides["d"] = 8; // default M = 8: misalignment needs M > d.
    const auto res6 = ExperimentRunner(4).run({spec});
    EXPECT_FALSE(res6[0].ok);
    EXPECT_NE(res6[0].error.find("M > d"), std::string::npos);

    spec.channel = "mt-eviction";
    spec.cpu = "Gold 6226";
    spec.overrides.clear();
    spec.overrides["targetSet"] = 3;
    const auto res7 = ExperimentRunner(4).run({spec});
    EXPECT_FALSE(res7[0].ok);
    EXPECT_NE(res7[0].error.find("targetSet >= 16"),
              std::string::npos);
}

TEST(ExperimentRunner, EmptyBatch)
{
    EXPECT_TRUE(ExperimentRunner(4).run({}).empty());
}

TEST(ExperimentRunner, ThreadCountResolves)
{
    EXPECT_GE(ExperimentRunner(0).threads(), 1);
    EXPECT_EQ(ExperimentRunner(3).threads(), 3);
}

TEST(ExperimentRunner, DeterministicAcrossThreadCounts)
{
    const auto specs = sampleBatch();

    const auto base = ExperimentRunner(1).runTrials(specs, 3);
    ASSERT_EQ(base.size(), specs.size() * 3);

    for (int threads : {2, 8}) {
        const auto other =
            ExperimentRunner(threads).runTrials(specs, 3);
        ASSERT_EQ(other.size(), base.size()) << threads;
        for (std::size_t i = 0; i < base.size(); ++i)
            expectIdentical(base[i], other[i]);
    }
}

TEST(ExperimentRunner, SinkOutputByteIdenticalAcrossThreadCounts)
{
    const auto specs = sampleBatch();
    const std::string json1 =
        JsonSink("t").render(ExperimentRunner(1).run(specs));
    const std::string json8 =
        JsonSink("t").render(ExperimentRunner(8).run(specs));
    EXPECT_EQ(json1, json8);

    const std::string csv1 =
        CsvSink().render(ExperimentRunner(1).run(specs));
    const std::string csv8 =
        CsvSink().render(ExperimentRunner(8).run(specs));
    EXPECT_EQ(csv1, csv8);
}

TEST(ExperimentRunner, SkippedPairReportsCleanly)
{
    ExperimentSpec spec;
    spec.channel = "mt-eviction";
    spec.cpu = "E-2288G"; // SMT disabled.
    const auto res = ExperimentRunner(2).run({spec});
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_TRUE(res[0].skipped);
    EXPECT_NE(res[0].error.find("not supported"), std::string::npos);
}

TEST(ExperimentRunner, TrippedRunGuardIsAnErrorRow)
{
    // A legal but tiny deadlock guard: the slow-switch loop cannot
    // retire a round in 1 kcycle. The trial becomes an error row (it
    // used to abort the process), the batch goes on, and every thread
    // count renders the same bytes.
    ExperimentSpec stuck;
    stuck.channel = "slow-switch";
    stuck.cpu = "E-2174G";
    stuck.messageBits = 8;
    stuck.overrides["model.deadlock_kcycles"] = 1;
    ExperimentSpec fine = stuck;
    fine.overrides.clear();
    const std::vector<ExperimentSpec> specs = {stuck, fine, stuck};

    const auto res = ExperimentRunner(1).run(specs);
    ASSERT_EQ(res.size(), 3u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_FALSE(res[0].skipped);
    EXPECT_NE(res[0].error.find("stuck after 1000 cycles"),
              std::string::npos)
        << res[0].error;
    EXPECT_TRUE(res[1].ok) << res[1].error;
    EXPECT_EQ(res[2].error, res[0].error);

    const std::string json = JsonSink("t").render(res);
    EXPECT_NE(json.find("\"error\":\"runUntilRetired: thread 0 stuck"),
              std::string::npos);
    EXPECT_EQ(JsonSink("t").render(ExperimentRunner(4).run(specs)), json);
}

TEST(Sinks, BenchJsonFileName)
{
    EXPECT_EQ(benchJsonFileName("table3"), "BENCH_table3.json");
}

} // namespace
} // namespace lf
