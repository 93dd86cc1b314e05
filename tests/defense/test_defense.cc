/**
 * @file
 * Unit tests for the defense/mitigation model: spec validation and
 * override keys, the keyed DSB index mapping, MITE-only delivery,
 * the static partition pin, the flush-on-domain-switch quantum, and
 * the worst-case observable padding.
 */

#include <gtest/gtest.h>

#include "defense/defense.hh"
#include "frontend/dsb.hh"
#include "frontend/params.hh"
#include "isa/mix_block.hh"
#include "sim/core.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

TEST(DefenseSpecTest, DefaultsAreInactive)
{
    DefenseSpec spec;
    EXPECT_TRUE(spec.inactive());
    EXPECT_EQ(validateDefenseSpec(spec), "");

    // Shape knobs alone do not activate.
    spec.randomize.epochSlots = 7;
    EXPECT_TRUE(spec.inactive());

    spec.randomize.enabled = true;
    EXPECT_FALSE(spec.inactive());
}

TEST(DefenseSpecTest, EveryActivatingKnobActivates)
{
    const auto activated = [](const std::string &key, double value) {
        DefenseSpec spec;
        EXPECT_TRUE(applyDefenseOverride(spec, key, value)) << key;
        return !spec.inactive();
    };
    EXPECT_TRUE(activated("defense.flush_switch_quantum", 4));
    EXPECT_TRUE(activated("defense.partition_dsb", 1));
    EXPECT_TRUE(activated("defense.partition_lsd", 1));
    EXPECT_TRUE(activated("defense.disable_dsb", 1));
    EXPECT_TRUE(activated("defense.randomize_sets", 1));
    EXPECT_TRUE(activated("defense.smoothing", 0.5));
    EXPECT_TRUE(activated("defense.rapl_quantum_uj", 1000));
    EXPECT_TRUE(activated("defense.rapl_interval_scale", 10));
}

TEST(DefenseSpecTest, Validation)
{
    DefenseSpec spec;
    spec.flush.switchQuantum = -1;
    EXPECT_NE(validateDefenseSpec(spec), "");
    spec = DefenseSpec{};
    spec.smoothing.strength = 1.5;
    EXPECT_NE(validateDefenseSpec(spec), "");
    spec = DefenseSpec{};
    spec.rapl.intervalScale = 0.5;
    EXPECT_NE(validateDefenseSpec(spec), "");
    spec = DefenseSpec{};
    spec.randomize.epochSlots = 0;
    EXPECT_NE(validateDefenseSpec(spec), "");
    spec = DefenseSpec{};
    spec.rapl.quantumUj = -1.0;
    EXPECT_NE(validateDefenseSpec(spec), "");

    // Beyond int's range: the applier saturates (a cast would be UB).
    for (const char *key : {"defense.flush_switch_quantum",
                            "defense.randomize_epoch_slots"}) {
        for (const double value : {1e30, -1e30}) {
            spec = DefenseSpec{};
            ASSERT_TRUE(applyDefenseOverride(spec, key, value)) << key;
            EXPECT_NE(validateDefenseSpec(spec), "") << key << value;
        }
    }
}

TEST(DefenseSpecTest, OverrideKeyTableMatchesApplier)
{
    // Every advertised key is accepted, carries the prefix, and is
    // distinct; unknown keys are rejected.
    const auto keys = defenseOverrideKeys();
    EXPECT_FALSE(keys.empty());
    for (const std::string &key : keys) {
        DefenseSpec spec;
        EXPECT_TRUE(isDefenseOverrideKey(key)) << key;
        EXPECT_TRUE(applyDefenseOverride(spec, key, 1.0)) << key;
    }
    DefenseSpec spec;
    EXPECT_FALSE(applyDefenseOverride(spec, "defense.bogus", 1.0));
    EXPECT_TRUE(isDefenseOverrideKey("defense.bogus"));
    EXPECT_FALSE(isDefenseOverrideKey("env.corunner_intensity"));
    EXPECT_FALSE(isDefenseOverrideKey("d"));
}

TEST(DefenseSpecTest, ModelCoarsening)
{
    const CpuModel base = gold6226();
    CpuModel model = base;
    applyDefenseToModel(model, DefenseSpec{});
    EXPECT_EQ(model.rapl.quantumMicroJoules,
              base.rapl.quantumMicroJoules);
    EXPECT_EQ(model.rapl.updateIntervalUs,
              base.rapl.updateIntervalUs);

    DefenseSpec spec;
    spec.rapl.quantumUj = 5000.0;
    spec.rapl.intervalScale = 8.0;
    applyDefenseToModel(model, spec);
    EXPECT_EQ(model.rapl.quantumMicroJoules, 5000.0);
    EXPECT_EQ(model.rapl.updateIntervalUs,
              base.rapl.updateIntervalUs * 8.0);

    // The quantum only coarsens; a defense below the native unit
    // keeps the native unit.
    CpuModel fine = base;
    spec.rapl.quantumUj = 1.0;
    spec.rapl.intervalScale = 1.0;
    applyDefenseToModel(fine, spec);
    EXPECT_EQ(fine.rapl.quantumMicroJoules,
              base.rapl.quantumMicroJoules);
}

TEST(DsbSaltTest, ZeroSaltIsTheLegacyMapping)
{
    FrontendParams params;
    Dsb dsb(params);
    for (Addr key : {Addr{0x400000 + 20 * 32}, Addr{0x800280},
                     Addr{0xC0000020}}) {
        EXPECT_EQ(dsb.setOf(0, key),
                  static_cast<int>((key >> 5) & 31));
    }
}

TEST(DsbSaltTest, SaltScattersTagsAndInvalidatesMovedLines)
{
    FrontendParams params;
    Dsb dsb(params);
    // Same window index, different tags: collide under the legacy
    // mapping.
    const Addr a = 0x400000 + 20 * 32;
    const Addr b = 0x800000 + 20 * 32;
    ASSERT_EQ(dsb.setOf(0, a), dsb.setOf(0, b));
    dsb.insert(0, a, 5);
    dsb.insert(0, b, 5);

    dsb.setIndexSalt(0x1234abcdULL);
    EXPECT_NE(dsb.setOf(0, a), dsb.setOf(0, b))
        << "keyed mapping left the alias pair in collision";
    // Lines whose keyed index moved cannot be found any more.
    const bool a_resident = dsb.contains(0, a);
    const bool b_resident = dsb.contains(0, b);
    EXPECT_FALSE(a_resident && b_resident);

    // Restoring salt 0 restores the legacy mapping (but not the
    // invalidated contents).
    dsb.setIndexSalt(0);
    EXPECT_EQ(dsb.setOf(0, a), static_cast<int>((a >> 5) & 31));
}

TEST(DefenseCoreTest, StaticPartitionPinsTheDsb)
{
    Core core(gold6226(), 1);
    EXPECT_FALSE(core.frontend().partitioned());
    core.setStaticPartition(true);
    EXPECT_TRUE(core.frontend().partitioned());

    // Binding/unbinding a single program no longer toggles.
    const ChainProgram loop =
        buildMixBlockChain(0x400000, 20, {{0, false}, {1, false}});
    core.setProgram(0, &loop.program);
    EXPECT_TRUE(core.frontend().partitioned());
    core.clearProgram(0);
    EXPECT_TRUE(core.frontend().partitioned());
    core.setStaticPartition(false);
    EXPECT_FALSE(core.frontend().partitioned());
}

TEST(DefenseCoreTest, StaticPartitionIsANoOpWithoutSmt)
{
    Core core(xeonE2288G(), 1); // SMT disabled
    DefenseSpec spec;
    spec.partition.dsb = true;
    spec.partition.lsd = true;
    Defense defense(spec, 1);
    defense.arm(core);
    EXPECT_FALSE(core.frontend().partitioned());
    EXPECT_FALSE(core.frontend().lsdStaticPartition());
}

TEST(DefenseCoreTest, DisableDsbFlushesAndStopsFills)
{
    Core core(gold6226(), 1);
    Dsb &dsb = core.frontend().dsb();
    dsb.insert(0, 0x400000 + 20 * 32, 5);
    ASSERT_TRUE(dsb.contains(0, 0x400000 + 20 * 32));

    DefenseSpec spec;
    spec.disableDsb = true;
    Defense defense(spec, 1);
    defense.arm(core);
    EXPECT_FALSE(core.frontend().dsbEnabled());
    EXPECT_FALSE(dsb.contains(0, 0x400000 + 20 * 32));

    // Running a loop no longer fills the DSB.
    dsb.resetStats();
    const ChainProgram loop =
        buildMixBlockChain(0x400000, 20, {{0, false}, {1, false}});
    core.setProgram(0, &loop.program);
    core.runUntilRetired(0, 8 * loop.instsPerIteration);
    EXPECT_EQ(dsb.inserts(), 0u);
    EXPECT_GT(core.counters(0).uopsMite, 0u);
    EXPECT_EQ(core.counters(0).uopsDsb, 0u);
    EXPECT_EQ(core.counters(0).uopsLsd, 0u); // inclusion: no LSD
}

TEST(DefenseCoreTest, FlushesOnEveryQuantumthDomainSwitch)
{
    Core core(gold6226(), 1);
    Dsb &dsb = core.frontend().dsb();
    const ChainProgram loop =
        buildMixBlockChain(0x400000, 20, {{0, false}});
    const Addr line = 0x400000 + 20 * 32;

    DefenseSpec spec;
    spec.flush.switchQuantum = 2;
    Defense defense(spec, 1);
    defense.arm(core);

    dsb.insert(0, line, 5);
    core.setProgram(0, &loop.program); // switch 1: no flush
    EXPECT_TRUE(dsb.contains(0, line));
    core.setProgram(0, &loop.program); // switch 2: flush
    EXPECT_FALSE(dsb.contains(0, line));
    dsb.insert(0, line, 5);
    core.setProgram(0, &loop.program); // switch 3: no flush
    EXPECT_TRUE(dsb.contains(0, line));
    core.setProgram(0, &loop.program); // switch 4: flush
    EXPECT_FALSE(dsb.contains(0, line));
}

TEST(DefenseFilterTest, PaddingMergesClassesMonotonically)
{
    DefenseSpec spec;
    spec.smoothing.strength = 1.0;
    Defense full(spec, 1);
    // Full strength: every observation is delivered at the running
    // worst case.
    EXPECT_EQ(full.filterTiming(100.0), 100.0);
    EXPECT_EQ(full.filterTiming(60.0), 100.0);
    EXPECT_EQ(full.filterTiming(140.0), 140.0);
    EXPECT_EQ(full.filterTiming(60.0), 140.0);

    spec.smoothing.strength = 0.5;
    Defense half(spec, 1);
    EXPECT_EQ(half.filterTiming(100.0), 100.0);
    EXPECT_EQ(half.filterTiming(60.0), 80.0); // halfway to the worst

    // Power observables share the padding state/semantics.
    spec.smoothing.strength = 1.0;
    Defense power(spec, 1);
    EXPECT_EQ(power.filterPower(2.0), 2.0);
    EXPECT_EQ(power.filterPower(1.0), 2.0);

    // Rate observables (IPC) pad *down* toward the running minimum —
    // constant-rate delivery slows the machine, never speeds it up.
    spec.smoothing.strength = 1.0;
    Defense rate(spec, 1);
    EXPECT_EQ(rate.filterRate(3.0), 3.0);
    EXPECT_EQ(rate.filterRate(4.0), 3.0);
    EXPECT_EQ(rate.filterRate(2.0), 2.0);
    EXPECT_EQ(rate.filterRate(3.5), 2.0);

    // Inactive defense: exact identity.
    Defense none(DefenseSpec{}, 0);
    EXPECT_TRUE(none.inactive());
    EXPECT_EQ(none.filterTiming(123.456), 123.456);
    EXPECT_EQ(none.filterPower(0.789), 0.789);
    EXPECT_EQ(none.filterRate(3.21), 3.21);
}

TEST(DefenseSeedTest, DefenseStreamIsDecorrelated)
{
    // Distinct from the trial seed itself and from the environment
    // chain, so arming a defense never reshuffles other streams.
    const std::uint64_t seed = 42;
    EXPECT_NE(deriveDefenseSeed(seed), seed);
    EXPECT_NE(deriveDefenseSeed(seed), deriveDefenseSeed(seed + 1));
}

} // namespace
} // namespace lf
