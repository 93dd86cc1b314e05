/**
 * @file
 * Environment model unit tests: "env." override parsing and
 * validation, quiet-spec detection, no-op guarantees of a quiet
 * Environment, determinism of the perturbation streams, the
 * zero-noise identity with the legacy no-environment transmit path,
 * the repetition/majority decode hook, and the error-vs-interference
 * direction the subsystem exists to produce.
 */

#include <gtest/gtest.h>

#include "core/nonmt_channels.hh"
#include "core/trial_context.hh"
#include "noise/environment.hh"
#include "run/sweep.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

std::vector<bool>
altMessage(std::size_t bits)
{
    std::vector<bool> msg(bits);
    for (std::size_t i = 0; i < bits; ++i)
        msg[i] = (i % 2) == 1;
    return msg;
}

TEST(EnvOverrides, EveryAdvertisedKeyApplies)
{
    EnvironmentSpec spec;
    for (const std::string &key : envOverrideKeys()) {
        EXPECT_TRUE(isEnvOverrideKey(key)) << key;
        EXPECT_TRUE(applyEnvOverride(spec, key, 0.5)) << key;
    }
}

TEST(EnvOverrides, UnknownKeysRejected)
{
    EnvironmentSpec spec;
    EXPECT_FALSE(applyEnvOverride(spec, "env.bogus", 1.0));
    EXPECT_FALSE(applyEnvOverride(spec, "corunner_intensity", 1.0));
    EXPECT_FALSE(applyEnvOverride(spec, "model.freqGhz", 1.0));
    EXPECT_TRUE(isEnvOverrideKey("env.bogus")); // prefix only
    EXPECT_FALSE(isEnvOverrideKey("environment.x"));
    EXPECT_FALSE(isEnvOverrideKey("model.freqGhz"));
}

TEST(EnvOverrides, KeysReachTheirFields)
{
    EnvironmentSpec spec;
    ASSERT_TRUE(applyEnvOverride(spec, "env.corunner_intensity", 0.7));
    ASSERT_TRUE(applyEnvOverride(spec, "env.corunner_evictions", 9));
    ASSERT_TRUE(applyEnvOverride(spec, "env.sched_preempt_prob", 0.1));
    ASSERT_TRUE(applyEnvOverride(spec, "env.timer_quantum_cycles", 64));
    ASSERT_TRUE(applyEnvOverride(spec, "env.rapl_drift_uj", 0.25));
    EXPECT_EQ(spec.corunner.intensity, 0.7);
    EXPECT_EQ(spec.corunner.evictionsPerSlot, 9);
    EXPECT_EQ(spec.scheduler.preemptProb, 0.1);
    EXPECT_EQ(spec.timer.quantumCycles, 64.0);
    EXPECT_EQ(spec.power.driftStepUj, 0.25);
}

TEST(EnvValidation, RangesEnforced)
{
    EnvironmentSpec spec;
    EXPECT_EQ(validateEnvironmentSpec(spec), "");
    spec.corunner.intensity = 1.5;
    EXPECT_NE(validateEnvironmentSpec(spec), "");
    spec.corunner.intensity = -0.1;
    EXPECT_NE(validateEnvironmentSpec(spec), "");
    spec.corunner.intensity = 1.0;
    EXPECT_EQ(validateEnvironmentSpec(spec), "");

    spec.scheduler.preemptProb = 2.0;
    EXPECT_NE(validateEnvironmentSpec(spec), "");
    spec.scheduler.preemptProb = 0.0;
    spec.timer.noiseStddevCycles = -1.0;
    EXPECT_NE(validateEnvironmentSpec(spec), "");

    // Beyond int's range: the applier saturates (a cast would be UB).
    for (const double value : {1e30, -1e30}) {
        spec = EnvironmentSpec{};
        ASSERT_TRUE(applyEnvOverride(spec, "env.corunner_evictions", value));
        EXPECT_NE(validateEnvironmentSpec(spec), "") << value;
    }
}

TEST(EnvQuiet, DefaultSpecIsQuietAndShapeKnobsStayQuiet)
{
    EnvironmentSpec spec;
    EXPECT_TRUE(spec.quiet());
    // Shape knobs without an activating source keep the spec quiet.
    spec.corunner.evictionsPerSlot = 100;
    spec.corunner.slowdownFrac = 0.5;
    spec.scheduler.quantumCycles = 1e6;
    spec.corunner.powerStddevUj = 50.0;
    EXPECT_TRUE(spec.quiet());
    // Each activating knob unquiets it.
    for (const char *key :
         {"env.corunner_intensity", "env.sched_preempt_prob",
          "env.sched_jitter_cycles", "env.timer_quantum_cycles",
          "env.timer_noise_cycles", "env.rapl_noise_uj",
          "env.rapl_drift_uj"}) {
        EnvironmentSpec active;
        ASSERT_TRUE(applyEnvOverride(active, key, 0.5)) << key;
        EXPECT_FALSE(active.quiet()) << key;
    }
}

TEST(EnvQuiet, QuietHooksAreExactNoOps)
{
    Environment env(EnvironmentSpec{}, 0); // a default spec is quiet
    EXPECT_TRUE(env.quiet());
    EXPECT_EQ(env.perturbTiming(1234.5), 1234.5);
    EXPECT_EQ(env.perturbPower(0.75), 0.75);

    Core core(gold6226(), 7);
    const Cycles before = core.cycle();
    env.beginSlot(core);
    EXPECT_EQ(core.cycle(), before);
    EXPECT_EQ(env.slots(), 0u);
}

TEST(EnvDeterminism, SameSeedSamePerturbationStream)
{
    EnvironmentSpec spec;
    spec.timer.noiseStddevCycles = 5.0;
    spec.power.noiseStddevUj = 0.5;
    Environment a(spec, 99);
    Environment b(spec, 99);
    Environment c(spec, 100);
    bool any_differs = false;
    for (int i = 0; i < 50; ++i) {
        const double ta = a.perturbTiming(1000.0);
        EXPECT_EQ(ta, b.perturbTiming(1000.0));
        if (ta != c.perturbTiming(1000.0))
            any_differs = true;
    }
    EXPECT_TRUE(any_differs); // different trial seed, different stream
}

TEST(EnvDeterminism, EnvironmentSeedDecorrelatedFromCoreSeed)
{
    // The env RNG must not alias the Core noise RNG's seed expansion.
    EXPECT_NE(deriveEnvironmentSeed(1), 1u);
    EXPECT_NE(deriveEnvironmentSeed(1), deriveEnvironmentSeed(2));
}

TEST(EnvIdentity, ZeroNoiseEnvironmentMatchesDefaultContext)
{
    // Two identically seeded contexts: one with the default (quiet)
    // environment, one with an explicitly-bound all-zero
    // EnvironmentSpec. Every result field must match bit for bit.
    ChannelConfig cfg;
    const auto msg = altMessage(60);

    TrialContext plain_ctx(gold6226(), 33);
    NonMtEvictionChannel plain(plain_ctx.core(), cfg);
    const ChannelResult expect = plain.transmit(msg, plain_ctx);

    TrialContext env_ctx(gold6226(), 33, EnvironmentSpec{});
    NonMtEvictionChannel with_env(env_ctx.core(), cfg);
    const ChannelResult got = with_env.transmit(msg, env_ctx);

    EXPECT_EQ(got.received, expect.received);
    EXPECT_EQ(got.errorRate, expect.errorRate);
    EXPECT_EQ(got.transmissionKbps, expect.transmissionKbps);
    EXPECT_EQ(got.seconds, expect.seconds);
    EXPECT_EQ(got.meanObs0, expect.meanObs0);
    EXPECT_EQ(got.meanObs1, expect.meanObs1);
}

TEST(EnvSweep, UnknownEnvAxisRejectedBySweepValidation)
{
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {gold6226().name};
    sweep.axes = {{"env.bogus", {0.0, 1.0}}};
    EXPECT_NE(validateSweepSpec(sweep).find("env.bogus"),
              std::string::npos);

    sweep.axes = {{"env.corunner_intensity", {0.0, 1.0}}};
    EXPECT_EQ(validateSweepSpec(sweep), "");
}

TEST(EnvSpecResolution, ErrorsComeBackAsErrorRowsNotAborts)
{
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = gold6226().name;
    spec.overrides["env.corunner_intensity"] = 2.0; // out of range
    const ExperimentResult res = runExperiment(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_FALSE(res.skipped);
    EXPECT_NE(res.error.find("env.corunner_intensity"),
              std::string::npos);

    spec.overrides.clear();
    spec.overrides["env.nonsense"] = 1.0;
    const ExperimentResult res2 = runExperiment(spec);
    EXPECT_FALSE(res2.ok);
    EXPECT_NE(res2.error.find("env.nonsense"), std::string::npos);
}

TEST(Repetition, EvenOrNonPositiveFactorsRejected)
{
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = gold6226().name;
    spec.overrides["repetition"] = 2;
    EXPECT_NE(validateSpec(spec).find("repetition"),
              std::string::npos);
    spec.overrides["repetition"] = 0;
    EXPECT_NE(validateSpec(spec).find("repetition"),
              std::string::npos);
    spec.overrides["repetition"] = 3;
    EXPECT_EQ(validateSpec(spec), "");
}

TEST(Repetition, TriplingRepetitionDividesTheRateByThree)
{
    auto run_with = [](int repetition) {
        ExperimentSpec spec;
        spec.channel = "nonmt-fast-eviction";
        spec.cpu = gold6226().name;
        spec.seed = 5;
        spec.messageBits = 30;
        spec.overrides["repetition"] = repetition;
        const ExperimentResult res = runExperiment(spec);
        EXPECT_TRUE(res.ok) << res.error;
        return res.result;
    };
    const ChannelResult r1 = run_with(1);
    const ChannelResult r3 = run_with(3);
    EXPECT_NEAR(r1.transmissionKbps / r3.transmissionKbps, 3.0, 0.05);
    // On a calibrated-noise (near-floor) channel the vote never makes
    // decoding worse.
    EXPECT_LE(r3.errorRate, r1.errorRate + 0.02);
}

TEST(EnvDirection, CorunnerIntensityDegradesTheChannel)
{
    // The acceptance direction: a loud co-runner must raise the
    // error rate well above the quiet point.
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {gold6226().name};
    sweep.axes = {{"env.corunner_intensity", {0.0, 1.0}}};
    sweep.trials = 3;
    sweep.messageBits = 60;
    sweep.seed = 77;
    const auto cells =
        aggregateSweep(runSweep(sweep, ExperimentRunner()));
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_GT(cells[1].errorRate.mean(),
              cells[0].errorRate.mean() + 0.05);
}

} // namespace
} // namespace lf
