/** @file Integration tests for the SGX covert channels. */

#include <gtest/gtest.h>

#include <cctype>

#include "common/message.hh"
#include "core/nonmt_channels.hh"
#include "core/trial_context.hh"
#include "sgx/sgx_channels.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

std::vector<bool>
message(std::size_t bits = 30)
{
    Rng rng(6);
    return makeMessage(MessagePattern::Alternating, bits, rng);
}

SgxConfig
fastSgx()
{
    SgxConfig sgx;
    sgx.rounds = 2000; // keep tests quick
    sgx.mtSteps = 40;
    sgx.mtMeasPerStep = 10;
    return sgx;
}

class SgxChannelsOnCpu
    : public ::testing::TestWithParam<const CpuModel *>
{
};

TEST_P(SgxChannelsOnCpu, NonMtEvictionWorks)
{
    TrialContext ctx(*GetParam(), 41);
    ChannelConfig cfg;
    cfg.d = 6;
    SgxNonMtEvictionChannel channel(ctx.core(), cfg, fastSgx());
    const auto res = channel.transmit(message(), ctx, 8);
    EXPECT_LT(res.errorRate, 0.15);
    EXPECT_GT(res.transmissionKbps, 5.0);
    EXPECT_LT(res.transmissionKbps, 500.0);
}

TEST_P(SgxChannelsOnCpu, NonMtMisalignmentWorks)
{
    TrialContext ctx(*GetParam(), 42);
    ChannelConfig cfg;
    cfg.d = 5;
    cfg.M = 8;
    SgxNonMtMisalignmentChannel channel(ctx.core(), cfg, fastSgx());
    const auto res = channel.transmit(message(), ctx, 8);
    EXPECT_LT(res.errorRate, 0.15);
}

TEST_P(SgxChannelsOnCpu, SgxSlowerThanNonSgx)
{
    ChannelConfig cfg;
    cfg.d = 6;
    TrialContext sgx_ctx(*GetParam(), 43);
    SgxNonMtEvictionChannel sgx_channel(sgx_ctx.core(), cfg,
                                        fastSgx());
    const auto sgx_res = sgx_channel.transmit(message(), sgx_ctx, 8);

    TrialContext plain_ctx(*GetParam(), 43);
    NonMtEvictionChannel plain(plain_ctx.core(), cfg);
    const auto plain_res = plain.transmit(message(), plain_ctx, 8);
    // Paper: SGX rates are 1/25 - 1/30 of non-SGX; with the reduced
    // test rounds we still require a large gap.
    EXPECT_GT(plain_res.transmissionKbps,
              5.0 * sgx_res.transmissionKbps);
}

INSTANTIATE_TEST_SUITE_P(
    SgxCpus, SgxChannelsOnCpu, ::testing::ValuesIn(sgxCpuModels()),
    [](const ::testing::TestParamInfo<const CpuModel *> &info) {
        std::string name = info.param->name;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(SgxMtChannels, EvictionWorksOnSmtSgxMachines)
{
    for (const CpuModel *cpu : sgxCpuModels()) {
        if (!cpu->smtEnabled)
            continue;
        TrialContext ctx(*cpu, 44);
        ChannelConfig cfg;
        cfg.d = 6;
        SgxMtEvictionChannel channel(ctx.core(), cfg, fastSgx());
        const auto res = channel.transmit(message(20), ctx, 6);
        EXPECT_LT(res.errorRate, 0.3) << cpu->name;
    }
}

TEST(SgxMtChannels, MisalignmentWorksOnSmtSgxMachines)
{
    for (const CpuModel *cpu : sgxCpuModels()) {
        if (!cpu->smtEnabled)
            continue;
        TrialContext ctx(*cpu, 45);
        ChannelConfig cfg;
        cfg.d = 5;
        cfg.M = 8;
        SgxMtMisalignmentChannel channel(ctx.core(), cfg, fastSgx());
        const auto res = channel.transmit(message(20), ctx, 6);
        EXPECT_LT(res.errorRate, 0.3) << cpu->name;
    }
}

TEST(SgxChannels, ExitChargesTheExitCycles)
{
    // No jitter and a quiet model: an exit that costs nothing makes
    // every timed enclave call exactly one default exit shorter.
    const Cycles exit_cycles = xeonE2174G().sgx.exitCycles;
    ASSERT_EQ(exit_cycles, 3200u);
    std::vector<std::vector<Cycles>> windows;
    for (const Cycles exit : {exit_cycles, Cycles{0}}) {
        CpuModel model = xeonE2174G();
        model.noise.stddevCycles = 0.0;
        model.noise.spikeProb = 0.0;
        model.noise.jitterPerKcycle = 0.0;
        model.sgx.entryJitterStddev = 0.0;
        model.sgx.exitCycles = exit;
        TrialContext ctx(model, 46);
        ChannelConfig cfg;
        cfg.d = 6;
        SgxNonMtEvictionChannel channel(ctx.core(), cfg, fastSgx());
        channel.prepareMachine(ctx);
        windows.emplace_back();
        for (const bool bit : message(8)) {
            SlotRaw raw;
            channel.transmitBit(bit, raw);
            ASSERT_EQ(raw.cycles.size(), 1u);
            windows.back().push_back(raw.cycles[0]);
        }
    }
    for (std::size_t i = 0; i < windows[0].size(); ++i)
        EXPECT_EQ(windows[0][i] - windows[1][i], exit_cycles) << i;
}

TEST(SgxChannels, RequireSgxSupport)
{
    Core core(gold6226()); // no SGX on the Gold 6226
    ChannelConfig cfg;
    cfg.d = 6;
    EXPECT_DEATH(SgxNonMtEvictionChannel(core, cfg, SgxConfig{}),
                 "SGX");
}

TEST(SgxChannels, MtVariantRequiresSmt)
{
    Core core(xeonE2288G()); // SGX yes, SMT no
    ChannelConfig cfg;
    cfg.d = 6;
    EXPECT_DEATH(SgxMtEvictionChannel(core, cfg, SgxConfig{}), "SMT");
}

} // namespace
} // namespace lf
