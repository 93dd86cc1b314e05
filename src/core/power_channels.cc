#include "core/power_channels.hh"

#include "common/logging.hh"

namespace lf {

namespace {

std::vector<BlockSpec>
waySpan(int first_way, int count, bool misaligned)
{
    std::vector<BlockSpec> specs;
    specs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        specs.push_back({first_way + i, misaligned});
    return specs;
}

} // namespace

PowerChannelBase::PowerChannelBase(Core &core,
                                   const ChannelConfig &config,
                                   const PowerChannelConfig &power_config)
    : CovertChannel(core, config), powerCfg_(power_config)
{
    lf_assert(power_config.rounds > 0, "power channel needs rounds > 0");
}

double
PowerChannelBase::transmitBit(bool bit)
{
    const MicroJoules e0 = core_.readRapl();
    const Cycles t0 = core_.cycle();

    runEncodeDecodeRounds(kThread, bit, powerCfg_.rounds, *receiver_,
                          *encodeOne_, encodeZero_.get());

    const MicroJoules e1 = core_.readRapl();
    const Cycles t1 = core_.cycle();
    lf_assert(t1 > t0, "power bit consumed no time");
    // Energy per encode/decode round (microjoules): the MITE-heavy
    // paths of a 1-bit consume distinctly more energy per round, and
    // unlike average watts this observable does not self-cancel when
    // the slow path also stretches the measurement window.
    return (e1 - e0) / static_cast<double>(powerCfg_.rounds);
}

PowerEvictionChannel::PowerEvictionChannel(
        Core &core, const ChannelConfig &config,
        const PowerChannelConfig &power_config)
    : PowerChannelBase(core, config, power_config)
{
}

std::string
PowerEvictionChannel::name() const
{
    return "non-MT power eviction";
}

void
PowerEvictionChannel::setup()
{
    receiver_ = prepareMixBlockChain(cfg_.receiverBase, cfg_.targetSet,
                                     waySpan(0, cfg_.d, false),
                                     dsbLineUops());
    encodeOne_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                      waySpan(cfg_.d,
                                              cfg_.N + 1 - cfg_.d,
                                              false),
                                      dsbLineUops());
    if (cfg_.stealthy) {
        encodeZero_ = prepareMixBlockChain(cfg_.senderBase, cfg_.altSet,
                                           waySpan(cfg_.d,
                                                   cfg_.N + 1 - cfg_.d,
                                                   false),
                                           dsbLineUops());
    }
}

PowerMisalignmentChannel::PowerMisalignmentChannel(
        Core &core, const ChannelConfig &config,
        const PowerChannelConfig &power_config)
    : PowerChannelBase(core, config, power_config)
{
}

std::string
PowerMisalignmentChannel::name() const
{
    return "non-MT power misalignment";
}

void
PowerMisalignmentChannel::setup()
{
    lf_assert(cfg_.M > cfg_.d, "misalignment channel needs M > d");
    receiver_ = prepareMixBlockChain(cfg_.receiverBase, cfg_.targetSet,
                                     waySpan(0, cfg_.d, false),
                                     dsbLineUops());
    encodeOne_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                      waySpan(cfg_.d, cfg_.M - cfg_.d,
                                              true),
                                      dsbLineUops());
    if (cfg_.stealthy) {
        encodeZero_ = prepareMixBlockChain(cfg_.senderBase,
                                           cfg_.targetSet,
                                           waySpan(cfg_.d,
                                                   cfg_.M - cfg_.d,
                                                   false),
                                           dsbLineUops());
    }
}

} // namespace lf
