/**
 * @file
 * CLI parsing tests: strict number parsing (trailing garbage such as
 * "40x" must be rejected — std::stod used to silently read 40),
 * duplicate --set keys, the --sweep axis grammar and its point cap,
 * the grid flags lf_run and lf_campaign plan share, --shard selectors,
 * the --list-channels/--list-axes catalogs (rendered from the same
 * tables the parser uses, so they cannot drift), and the up-front
 * override-value validation ("--set repetition=2" fails at parse
 * time with the resolver's message), including the chain-base
 * alignment that used to abort the process.
 */

#include <gtest/gtest.h>

#include "defense/defense.hh"
#include "noise/environment.hh"
#include "core/channel_registry.hh"
#include "run/cli.hh"
#include "run/experiment.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

TEST(StrictNumbers, DoubleRejectsTrailingGarbage)
{
    double value = 0.0;
    EXPECT_TRUE(parseStrictDouble("40", value));
    EXPECT_EQ(value, 40.0);
    EXPECT_TRUE(parseStrictDouble("4e2", value));
    EXPECT_EQ(value, 400.0);
    EXPECT_TRUE(parseStrictDouble("-2.5", value));

    EXPECT_FALSE(parseStrictDouble("40x", value));
    EXPECT_FALSE(parseStrictDouble("x40", value));
    EXPECT_FALSE(parseStrictDouble("", value));
    EXPECT_FALSE(parseStrictDouble("4 0", value));
    EXPECT_FALSE(parseStrictDouble("nan", value));
    EXPECT_FALSE(parseStrictDouble("inf", value));
}

TEST(StrictNumbers, IntAndUint64)
{
    int i = 0;
    EXPECT_TRUE(parseStrictInt("-3", i));
    EXPECT_EQ(i, -3);
    EXPECT_FALSE(parseStrictInt("3.5", i));
    EXPECT_FALSE(parseStrictInt("3x", i));

    std::uint64_t u = 0;
    EXPECT_TRUE(parseStrictUint64("18446744073709551615", u));
    EXPECT_FALSE(parseStrictUint64("-1", u));
    EXPECT_FALSE(parseStrictUint64("12q", u));
}

TEST(SetParsing, AcceptsKeyValue)
{
    std::map<std::string, double> overrides;
    EXPECT_EQ(parseSetArg("d=40", overrides), "");
    EXPECT_EQ(overrides.at("d"), 40.0);
    EXPECT_EQ(parseSetArg("model.jitterPerKcycle=2.5", overrides), "");
    EXPECT_EQ(overrides.size(), 2u);
}

TEST(SetParsing, RejectsTrailingGarbage)
{
    std::map<std::string, double> overrides;
    const std::string error = parseSetArg("d=40x", overrides);
    EXPECT_NE(error.find("bad --set value"), std::string::npos);
    EXPECT_TRUE(overrides.empty());
}

TEST(SetParsing, RejectsDuplicateKeys)
{
    std::map<std::string, double> overrides;
    EXPECT_EQ(parseSetArg("d=4", overrides), "");
    const std::string error = parseSetArg("d=6", overrides);
    EXPECT_NE(error.find("duplicate --set key"), std::string::npos);
    EXPECT_EQ(overrides.at("d"), 4.0); // first value kept, not last
}

TEST(SetParsing, RejectsMalformedTokens)
{
    std::map<std::string, double> overrides;
    EXPECT_FALSE(parseSetArg("d", overrides).empty());
    EXPECT_FALSE(parseSetArg("=5", overrides).empty());
    EXPECT_FALSE(parseSetArg("d=", overrides).empty());
}

TEST(SetParsing, EnvKeysAreJustAsStrict)
{
    // env.* overrides go through the same strict grammar as channel
    // and model.* keys: whole-token values, no duplicates.
    std::map<std::string, double> overrides;
    EXPECT_EQ(parseSetArg("env.corunner_intensity=0.5", overrides),
              "");
    EXPECT_EQ(overrides.at("env.corunner_intensity"), 0.5);

    std::string error =
        parseSetArg("env.timer_noise_cycles=4x", overrides);
    EXPECT_NE(error.find("bad --set value"), std::string::npos);
    EXPECT_EQ(overrides.count("env.timer_noise_cycles"), 0u);

    error = parseSetArg("env.corunner_intensity=0.9", overrides);
    EXPECT_NE(error.find("duplicate --set key"), std::string::npos);
    EXPECT_EQ(overrides.at("env.corunner_intensity"), 0.5);

    EXPECT_FALSE(parseSetArg("env.sched_preempt_prob=", overrides)
                     .empty());
}

TEST(SetParsing, UnknownEnvKeysRejectedBySweepValidation)
{
    // parseSetArg() is grammar-only; key existence is the sweep
    // validator's job (same split as the model.* keys).
    std::map<std::string, double> overrides;
    EXPECT_EQ(parseSetArg("env.bogus=1", overrides), "");

    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {"Gold 6226"};
    sweep.baseOverrides = overrides;
    EXPECT_NE(validateSweepSpec(sweep).find("env.bogus"),
              std::string::npos);

    sweep.baseOverrides.clear();
    sweep.baseOverrides["env.corunner_intensity"] = 0.5;
    EXPECT_EQ(validateSweepSpec(sweep), "");
}

TEST(SweepParsing, EnvAxesParse)
{
    std::vector<SweepAxis> axes;
    EXPECT_EQ(parseSweepArg("env.corunner_intensity=0:1:0.25", axes),
              "");
    ASSERT_EQ(axes.size(), 1u);
    EXPECT_EQ(axes[0].key, "env.corunner_intensity");
    EXPECT_EQ(axes[0].values.size(), 5u);
    // Duplicate env axis across --sweep arguments is still rejected.
    EXPECT_FALSE(
        parseSweepArg("env.corunner_intensity=0|1", axes).empty());
}

TEST(SweepParsing, RangeIsInclusive)
{
    std::vector<SweepAxis> axes;
    EXPECT_EQ(parseSweepArg("d=20:200:20", axes), "");
    ASSERT_EQ(axes.size(), 1u);
    EXPECT_EQ(axes[0].key, "d");
    ASSERT_EQ(axes[0].values.size(), 10u);
    EXPECT_EQ(axes[0].values.front(), 20.0);
    EXPECT_EQ(axes[0].values.back(), 200.0);
}

TEST(SweepParsing, FractionalStepHitsTheUpperBound)
{
    std::vector<SweepAxis> axes;
    EXPECT_EQ(parseSweepArg("x=1.5:3:0.5", axes), "");
    ASSERT_EQ(axes[0].values.size(), 4u);
    EXPECT_DOUBLE_EQ(axes[0].values.back(), 3.0);
}

TEST(SweepParsing, ListsAndSingleValues)
{
    std::vector<SweepAxis> axes;
    EXPECT_EQ(parseSweepArg("rounds=5|10|20,d=6", axes), "");
    ASSERT_EQ(axes.size(), 2u);
    EXPECT_EQ(axes[0].values,
              (std::vector<double>{5.0, 10.0, 20.0}));
    EXPECT_EQ(axes[1].values, (std::vector<double>{6.0}));
}

TEST(SweepParsing, RejectsBadAxes)
{
    std::vector<SweepAxis> axes;
    EXPECT_FALSE(parseSweepArg("d", axes).empty());
    EXPECT_FALSE(parseSweepArg("d=1:8", axes).empty());
    EXPECT_FALSE(parseSweepArg("d=8:1:1", axes).empty());
    EXPECT_FALSE(parseSweepArg("d=1:8:0", axes).empty());
    EXPECT_FALSE(parseSweepArg("d=1:8:-1", axes).empty());
    EXPECT_FALSE(parseSweepArg("d=1:8:1x", axes).empty());
    EXPECT_TRUE(axes.empty());

    EXPECT_EQ(parseSweepArg("d=1:8:1", axes), "");
    EXPECT_FALSE(parseSweepArg("d=2|4", axes).empty()); // duplicate
}

TEST(SweepParsing, RejectsUnboundedRanges)
{
    // A billion points used to allocate until the process was killed,
    // and (HI-LO)/STEP = +inf was cast to a count.
    std::vector<SweepAxis> axes;
    for (const char *text : {"d=1:1e9:1", "d=0:1e300:1e-300"}) {
        EXPECT_NE(parseSweepArg(text, axes).find(
                      "sweep axis \"d\": more than"),
                  std::string::npos) << text;
    }
    EXPECT_TRUE(axes.empty());
    EXPECT_EQ(parseSweepArg("d=1:" + std::to_string(kMaxSweepTrials) +
                                ":1", axes), "");
    EXPECT_EQ(axes.at(0).values.size(), kMaxSweepTrials);

    // Axes within the bound each can still multiply past it: the
    // grid's product is bounded too, with no size_t wrap-around.
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {"Gold 6226"};
    sweep.axes = axes;
    EXPECT_EQ(validateSweepSpec(sweep), "");
    sweep.trials = 2;
    EXPECT_NE(validateSweepSpec(sweep).find("more than"),
              std::string::npos);
    sweep.trials = 1;
    ASSERT_EQ(parseSweepArg("rounds=1:1e6:1", sweep.axes), "");
    EXPECT_NE(validateSweepSpec(sweep).find("more than"),
              std::string::npos);
    ASSERT_EQ(parseSweepArg("M=1:1e6:1,N=1:1e6:1", sweep.axes), "");
    EXPECT_NE(validateSweepSpec(sweep).find("more than"),
              std::string::npos);
}

TEST(GridFlags, BuildOneSweepForBothClis)
{
    SweepSpec sweep;
    for (const std::string text :
         {"--channel=all", "--trials=3", "--seed=7", "--bits=12",
          "--pattern=random", "--preamble=16", "--set=rounds=5",
          "--sweep=d=2|4"}) {
        const std::string flag = text.substr(0, text.find('='));
        ASSERT_TRUE(isGridFlag(flag));
        EXPECT_EQ(parseGridFlag(flag, text.substr(flag.size() + 1),
                                sweep), "") << text;
    }
    EXPECT_FALSE(isGridFlag("--threads"));
    expandGridNames(sweep); // no --cpu: every CPU model
    EXPECT_EQ(sweep.channels, allChannelNames());
    EXPECT_EQ(sweep.cpus.size(), allCpuModels().size());
    EXPECT_EQ(sweep.trials, 3);
    EXPECT_EQ(sweep.seed, 7u);
    EXPECT_EQ(sweep.messageBits, 12u);
    EXPECT_EQ(sweep.patterns[0], MessagePattern::Random);
    EXPECT_EQ(sweep.preambleBits, 16);
    EXPECT_EQ(sweep.baseOverrides.at("rounds"), 5.0);
    EXPECT_EQ(sweep.axes.at(0).values, (std::vector<double>{2, 4}));

    // The error texts both CLIs print; a rejected value changes nothing.
    EXPECT_EQ(parseGridFlag("--bits", "0", sweep), "bad --bits value");
    EXPECT_EQ(parseGridFlag("--pattern", "zigzag", sweep),
              "unknown pattern \"zigzag\"");
    EXPECT_EQ(sweep.messageBits, 12u);
}

TEST(ShardParsing, AcceptsValidSelectors)
{
    SweepShard shard;
    EXPECT_EQ(parseShardArg("0/4", shard), "");
    EXPECT_EQ(shard.index, 0);
    EXPECT_EQ(shard.count, 4);
    EXPECT_EQ(parseShardArg("3/4", shard), "");
    EXPECT_EQ(shard.index, 3);
}

TEST(ShardParsing, RejectsBadSelectors)
{
    SweepShard shard;
    EXPECT_FALSE(parseShardArg("4/4", shard).empty());
    EXPECT_FALSE(parseShardArg("-1/4", shard).empty());
    EXPECT_FALSE(parseShardArg("1", shard).empty());
    EXPECT_FALSE(parseShardArg("1/", shard).empty());
    EXPECT_FALSE(parseShardArg("/4", shard).empty());
    EXPECT_FALSE(parseShardArg("a/b", shard).empty());
    EXPECT_FALSE(parseShardArg("0/0", shard).empty());
}

TEST(SetParsing, DefenseKeysAreJustAsStrict)
{
    std::map<std::string, double> overrides;
    EXPECT_EQ(parseSetArg("defense.partition_dsb=1", overrides), "");
    EXPECT_EQ(overrides.at("defense.partition_dsb"), 1.0);

    std::string error =
        parseSetArg("defense.smoothing=0.5x", overrides);
    EXPECT_NE(error.find("bad --set value"), std::string::npos);

    error = parseSetArg("defense.partition_dsb=0", overrides);
    EXPECT_NE(error.find("duplicate --set key"), std::string::npos);
    EXPECT_EQ(overrides.at("defense.partition_dsb"), 1.0);

    // Key existence is the sweep validator's job, same as env.*.
    overrides.clear();
    EXPECT_EQ(parseSetArg("defense.bogus=1", overrides), "");
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {"Gold 6226"};
    sweep.baseOverrides = overrides;
    EXPECT_NE(validateSweepSpec(sweep).find("defense.bogus"),
              std::string::npos);

    sweep.baseOverrides.clear();
    sweep.baseOverrides["defense.flush_switch_quantum"] = 4.0;
    EXPECT_EQ(validateSweepSpec(sweep), "");
}

TEST(ValueValidation, RepetitionRejectedAtParseTime)
{
    // The satellite contract: "--set repetition=2" must fail before
    // any trial runs, with the resolver's message, instead of
    // surfacing as error rows from deep inside the run.
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {"Gold 6226"};
    sweep.baseOverrides["repetition"] = 2.0;
    ASSERT_EQ(validateSweepSpec(sweep), "");
    const std::string error = validateSweepSpecValues(sweep);
    EXPECT_NE(error.find("repetition must be odd"),
              std::string::npos)
        << error;
}

TEST(ValueValidation, ProtocolShapeAndDefenseRangesCheckedUpFront)
{
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {"Gold 6226"};
    ASSERT_EQ(validateSweepSpecValues(sweep), "");

    sweep.baseOverrides["d"] = 40.0; // > N
    EXPECT_NE(validateSweepSpecValues(sweep).find("out of range"),
              std::string::npos);
    sweep.baseOverrides.clear();

    sweep.baseOverrides["defense.smoothing"] = 2.0;
    EXPECT_NE(
        validateSweepSpecValues(sweep).find("defense.smoothing"),
        std::string::npos);
    sweep.baseOverrides.clear();

    sweep.baseOverrides["env.corunner_intensity"] = 3.0;
    EXPECT_NE(validateSweepSpecValues(sweep).find(
                  "env.corunner_intensity"),
              std::string::npos);
    sweep.baseOverrides.clear();

    // Every axis value is probed in isolation: the bad middle value
    // of a sweep list is reported with its key and value.
    sweep.axes = {{"rounds", {5, 0, 10}}};
    const std::string error = validateSweepSpecValues(sweep);
    EXPECT_NE(error.find("rounds=0"), std::string::npos) << error;
}

TEST(ValueValidation, UnalignedChainBasesAreErrorsNotAborts)
{
    // Mix-block chains sit at 1 KiB-aligned bases. An unaligned
    // receiverBase/senderBase used to pass validation and abort the
    // process in the chain builder (rc 134); now it is an error that
    // names the key, up front and as a row. slow-switch builds LCP
    // loops, which take any base.
    for (const std::string &channel : allChannelNames()) {
        for (const char *key : {"receiverBase", "senderBase"}) {
            ExperimentSpec spec;
            spec.channel = channel;
            spec.cpu = "E-2174G";
            spec.messageBits = 4;
            spec.overrides[key] = 1;
            const ExperimentResult res = runExperiment(spec);
            const std::string what = channel + " " + key;
            if (channelInfo(channel).mixBlockChains) {
                EXPECT_FALSE(res.ok) << what;
                EXPECT_NE(res.error.find(key), std::string::npos)
                    << what << ": " << res.error;
            } else {
                EXPECT_TRUE(res.ok) << what << ": " << res.error;
            }
        }
    }

    SweepSpec sweep;
    sweep.channels = {"mt-eviction"};
    sweep.cpus = {"E-2174G"};
    sweep.baseOverrides["receiverBase"] = 1.0;
    EXPECT_NE(validateSweepSpecValues(sweep).find("receiverBase=1"),
              std::string::npos);
    sweep.baseOverrides["receiverBase"] = 0x401000;
    EXPECT_EQ(validateSweepSpecValues(sweep), "");
    // Values no address can hold are errors too, before the base is
    // converted to one.
    for (const double base : {-1024.0, 1e30}) {
        sweep.baseOverrides["senderBase"] = base;
        EXPECT_NE(validateSweepSpecValues(sweep).find("senderBase="),
                  std::string::npos)
            << base;
    }
}

TEST(Catalogs, ChannelCatalogListsEveryRegistryChannel)
{
    const std::string catalog = renderChannelCatalog();
    for (const std::string &name : allChannelNames())
        EXPECT_NE(catalog.find(name), std::string::npos) << name;
    for (const CpuModel *cpu : allCpuModels()) {
        EXPECT_NE(catalog.find("\"" + cpu->name + "\""),
                  std::string::npos)
            << cpu->name;
    }
}

TEST(Catalogs, AxisCatalogListsEveryOverrideKeyFamily)
{
    // The listing is rendered from the same key tables the override
    // appliers use, so a key added to any family shows up here
    // without further wiring — this test pins that contract.
    const std::string catalog = renderOverrideKeyCatalog();
    for (const std::string &key : channelOverrideKeys())
        EXPECT_NE(catalog.find(" " + key), std::string::npos) << key;
    for (const std::string &key : modelOverrideKeys())
        EXPECT_NE(catalog.find(" " + key), std::string::npos) << key;
    for (const std::string &key : envOverrideKeys())
        EXPECT_NE(catalog.find(" " + key), std::string::npos) << key;
    for (const std::string &key : defenseOverrideKeys())
        EXPECT_NE(catalog.find(" " + key), std::string::npos) << key;
}

// ProgressMeter with an injected fake clock: the drawn/reported rate
// must track the *recent* pace, not the lifetime mean. The scenario
// is a resumed campaign: a warm-cache burst replays many rows almost
// instantly, then fresh trials arrive slowly — a lifetime-average
// rate would keep promising a near-zero ETA for the rest of the run.
class FakeClockMeter : public ::testing::Test
{
  protected:
    using TimePoint = std::chrono::steady_clock::time_point;

    void install(ProgressMeter &meter)
    {
        meter.setSink(nullptr); // no terminal output from tests
        meter.setClock([this] { return nowFake_; });
    }

    void advance(double seconds)
    {
        nowFake_ += std::chrono::microseconds(
            static_cast<long long>(seconds * 1e6));
    }

    TimePoint nowFake_{std::chrono::seconds(1000)};
};

TEST_F(FakeClockMeter, WindowedRateRecoversFromResumeBurst)
{
    ProgressMeter meter("test", 10000);
    install(meter);

    // Warm-cache burst: 5000 rows in 50 ms -> ~100k rows/s.
    for (std::size_t done = 500; done <= 5000; done += 500) {
        advance(0.005);
        meter.update(done);
    }
    EXPECT_GT(meter.rate(), 10000.0);

    // Fresh trials: 10 rows/s. Once the burst leaves the ~5 s
    // window, the rate must settle near 10/s and the ETA near
    // 5000 remaining / 10 = 500 s. The lifetime mean (~5500 done in
    // ~55 s elapsed = 100/s -> ETA 50 s) would be 10x off.
    for (int i = 0; i < 100; ++i) {
        advance(0.5);
        meter.update(5000 + static_cast<std::size_t>(i + 1) * 5);
    }
    EXPECT_NEAR(meter.rate(), 10.0, 2.0);
    EXPECT_NEAR(meter.etaSeconds(),
                (10000.0 - 5500.0) / meter.rate(), 1.0);
}

TEST_F(FakeClockMeter, RateIsZeroWithoutProgressOrTime)
{
    ProgressMeter meter("test", 100);
    install(meter);
    meter.update(0);
    EXPECT_EQ(meter.rate(), 0.0);
    EXPECT_EQ(meter.etaSeconds(), 0.0);
    // Two updates at the same instant: no time span, no rate.
    meter.update(50);
    EXPECT_EQ(meter.rate(), 0.0);
}

TEST_F(FakeClockMeter, FinalRedrawIsGuarded)
{
    ProgressMeter meter("test", 10);
    // Draw into a tmpfile so the final-redraw path is exercised for
    // real, not short-circuited by a null sink.
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    meter.setSink(sink);
    meter.setClock([this] { return nowFake_; });

    advance(1.0);
    meter.update(5);
    const long after_first = std::ftell(sink);
    EXPECT_GT(after_first, 0);

    // Reaching the total redraws once even inside the throttle
    // interval...
    advance(0.001);
    meter.update(10);
    const long after_final = std::ftell(sink);
    EXPECT_GT(after_final, after_first);

    // ...but a caller looping on the final count must not spam the
    // line: repeat final updates inside the throttle draw nothing.
    for (int i = 0; i < 50; ++i) {
        advance(0.001);
        meter.update(10);
    }
    EXPECT_EQ(std::ftell(sink), after_final);

    // done > total must not underflow the remaining-work estimate.
    advance(1.0);
    meter.update(12);
    EXPECT_GE(meter.etaSeconds(), 0.0);

    meter.finish();
    std::fclose(sink);
}

} // namespace
} // namespace lf
