#include "core/mt_channels.hh"

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

MtChannelBase::MtChannelBase(Core &core, const ChannelConfig &config)
    : CovertChannel(core, config)
{
    lf_assert(core.model().smtEnabled,
              "MT channel needs an SMT-enabled CPU model (%s has SMT"
              " disabled)", core.model().name.c_str());
}

double
MtChannelBase::transmitBit(bool bit)
{
    return measureMtSteps(bit, cfg_.mtSteps, cfg_.mtMeasPerStep,
                          *receiver_, *encodeOne_);
}

MtEvictionChannel::MtEvictionChannel(Core &core,
                                     const ChannelConfig &config)
    : MtChannelBase(core, config)
{
}

std::string
MtEvictionChannel::name() const
{
    return "MT eviction";
}

void
MtEvictionChannel::setup()
{
    lf_assert(cfg_.targetSet >= 16,
              "MT channels need a target set in the partition-mapped"
              " half (>= 16), got %d", cfg_.targetSet);
    receiver_ = prepareMixBlockChain(cfg_.receiverBase, cfg_.targetSet,
                                     waySpan(0, cfg_.d, false),
                                     dsbLineUops());
    encodeOne_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                      waySpan(cfg_.d,
                                              cfg_.N + 1 - cfg_.d,
                                              false),
                                      dsbLineUops());
}

MtMisalignmentChannel::MtMisalignmentChannel(Core &core,
                                             const ChannelConfig &config)
    : MtChannelBase(core, config)
{
}

std::string
MtMisalignmentChannel::name() const
{
    return "MT misalignment";
}

void
MtMisalignmentChannel::setup()
{
    lf_assert(cfg_.targetSet >= 16,
              "MT channels need a target set in the partition-mapped"
              " half (>= 16), got %d", cfg_.targetSet);
    lf_assert(cfg_.M > cfg_.d, "misalignment channel needs M > d");
    receiver_ = prepareMixBlockChain(cfg_.receiverBase, cfg_.targetSet,
                                     waySpan(0, cfg_.d, false),
                                     dsbLineUops());
    encodeOne_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                      waySpan(cfg_.d, cfg_.M - cfg_.d,
                                              true),
                                      dsbLineUops());
}

} // namespace lf
