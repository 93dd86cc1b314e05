#include "sgx/sgx_channels.hh"

#include "common/logging.hh"

namespace lf {

namespace {

void
requireSgx(const Core &core)
{
    lf_assert(core.model().sgx.supported,
              "CPU model %s has no SGX support",
              core.model().name.c_str());
}

} // namespace

SgxNonMtChannelBase::SgxNonMtChannelBase(Core &core,
                                         const ChannelConfig &config,
                                         const SgxConfig &sgx_config)
    : CovertChannel(core, config), sgxCfg_(sgx_config)
{
    requireSgx(core);
}

void
SgxNonMtChannelBase::transmitBit(bool bit, SlotRaw &raw)
{
    const Cycles start = core_.cycle();
    chargeMeasurementOverhead();           // receiver starts the timer
    core_.enclaveEntry(kThread);           // single enclave entry

    // Inside the enclave: init once, then many interleaved
    // encode/decode rounds. No per-round sync is needed — sender and
    // "receiver pattern" are phases of the same enclave code.
    runEncodeDecodeRounds(kThread, bit, sgxCfg_.rounds, *receiver_,
                          *encodeOne_, encodeZero_.get());
    core_.clearProgram(kThread);

    core_.enclaveExit(kThread);            // single enclave exit
    chargeMeasurementOverhead();           // receiver stops the timer
    raw.cycles.push_back(core_.cycle() - start);
}

SgxNonMtEvictionChannel::SgxNonMtEvictionChannel(
        Core &core, const ChannelConfig &config,
        const SgxConfig &sgx_config)
    : SgxNonMtChannelBase(core, config, sgx_config)
{
}

std::string
SgxNonMtEvictionChannel::name() const
{
    return std::string("SGX non-MT ") +
        (cfg_.stealthy ? "stealthy" : "fast") + " eviction";
}

void
SgxNonMtEvictionChannel::setup()
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
        encodeZero_ = prepareMixBlockChain(cfg_.senderBase,
                                           cfg_.altSet,
                                           waySpan(cfg_.d,
                                                   cfg_.N + 1 - cfg_.d,
                                                   false),
                                           dsbLineUops());
    }
}

SgxNonMtMisalignmentChannel::SgxNonMtMisalignmentChannel(
        Core &core, const ChannelConfig &config,
        const SgxConfig &sgx_config)
    : SgxNonMtChannelBase(core, config, sgx_config)
{
}

std::string
SgxNonMtMisalignmentChannel::name() const
{
    return std::string("SGX non-MT ") +
        (cfg_.stealthy ? "stealthy" : "fast") + " misalignment";
}

void
SgxNonMtMisalignmentChannel::setup()
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

SgxMtChannelBase::SgxMtChannelBase(Core &core,
                                   const ChannelConfig &config,
                                   const SgxConfig &sgx_config)
    : CovertChannel(core, config), sgxCfg_(sgx_config)
{
    requireSgx(core);
    lf_assert(core.model().smtEnabled,
              "MT SGX channel needs SMT (disabled on %s)",
              core.model().name.c_str());
}

bool
SgxMtChannelBase::hasSlotEdges(bool bit) const
{
    return bit;
}

void
SgxMtChannelBase::enterSlot(bool)
{
    // The enclave (sender) is entered once per 1 on the sibling
    // hardware thread.
    core_.enclaveEntry(kSender);
}

void
SgxMtChannelBase::transmitBit(bool bit, SlotRaw &raw)
{
    runMtSteps(bit, sgxCfg_.mtSteps, sgxCfg_.mtMeasPerStep, *receiver_,
               *encodeOne_, raw.cycles);
}

void
SgxMtChannelBase::leaveSlot(bool)
{
    core_.enclaveExit(kSender);
}

SgxMtEvictionChannel::SgxMtEvictionChannel(Core &core,
                                           const ChannelConfig &config,
                                           const SgxConfig &sgx_config)
    : SgxMtChannelBase(core, config, sgx_config)
{
}

std::string
SgxMtEvictionChannel::name() const
{
    return "SGX MT eviction";
}

void
SgxMtEvictionChannel::setup()
{
    lf_assert(cfg_.targetSet >= 16,
              "MT channels need a target set >= 16");
    receiver_ = prepareMixBlockChain(cfg_.receiverBase, cfg_.targetSet,
                                     waySpan(0, cfg_.d, false),
                                     dsbLineUops());
    encodeOne_ = prepareMixBlockChain(cfg_.senderBase, cfg_.targetSet,
                                      waySpan(cfg_.d,
                                              cfg_.N + 1 - cfg_.d,
                                              false),
                                      dsbLineUops());
}

SgxMtMisalignmentChannel::SgxMtMisalignmentChannel(
        Core &core, const ChannelConfig &config,
        const SgxConfig &sgx_config)
    : SgxMtChannelBase(core, config, sgx_config)
{
}

std::string
SgxMtMisalignmentChannel::name() const
{
    return "SGX MT misalignment";
}

void
SgxMtMisalignmentChannel::setup()
{
    lf_assert(cfg_.targetSet >= 16,
              "MT channels need a target set >= 16");
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
