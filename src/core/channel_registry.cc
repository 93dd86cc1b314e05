#include "core/channel_registry.hh"

#include <utility>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/mt_channels.hh"
#include "core/nonmt_channels.hh"
#include "core/trial_context.hh"

namespace lf {

namespace {

/** Table III eviction setting: receiver holds d = 6 ways. */
ChannelConfig
evictionDefaults(bool stealthy)
{
    ChannelConfig cfg;
    cfg.d = 6;
    cfg.stealthy = stealthy;
    return cfg;
}

/** Table III misalignment setting: d = 5, M = 8 (and a shorter MT
 *  sender loop, which only the MT variant consults). */
ChannelConfig
misalignmentDefaults(bool stealthy)
{
    ChannelConfig cfg;
    cfg.d = 5;
    cfg.M = 8;
    cfg.stealthy = stealthy;
    cfg.mtSenderIters = 2;
    return cfg;
}

template <typename ChannelT>
ChannelFactory
plainFactory()
{
    return [](Core &core, const ChannelConfig &cfg,
              const ChannelExtras &) -> std::unique_ptr<CovertChannel> {
        return std::make_unique<ChannelT>(core, cfg);
    };
}

template <typename ChannelT>
ChannelFactory
powerFactory()
{
    return [](Core &core, const ChannelConfig &cfg,
              const ChannelExtras &extras)
               -> std::unique_ptr<CovertChannel> {
        return std::make_unique<ChannelT>(core, cfg, extras.power);
    };
}

template <typename ChannelT>
ChannelFactory
sgxFactory()
{
    return [](Core &core, const ChannelConfig &cfg,
              const ChannelExtras &extras)
               -> std::unique_ptr<CovertChannel> {
        return std::make_unique<ChannelT>(core, cfg, extras.sgx);
    };
}

} // namespace

ChannelRegistry &
ChannelRegistry::instance()
{
    static ChannelRegistry registry;
    return registry;
}

ChannelRegistry::ChannelRegistry()
{
    // ---- Table III: non-MT timing channels (Sec. V-C/D). ----
    {
        ChannelInfo info;
        info.name = "nonmt-fast-eviction";
        info.description =
            "Non-MT fast eviction channel (Table III, Sec. V-C)";
        info.defaultConfig = evictionDefaults(false);
        registerChannel(info, plainFactory<NonMtEvictionChannel>());

        info.name = "nonmt-stealthy-eviction";
        info.description =
            "Non-MT stealthy eviction channel (Table III, Sec. V-C)";
        info.defaultConfig = evictionDefaults(true);
        registerChannel(info, plainFactory<NonMtEvictionChannel>());

        info.name = "nonmt-fast-misalignment";
        info.description =
            "Non-MT fast misalignment channel (Table III, Sec. V-D)";
        info.defaultConfig = misalignmentDefaults(false);
        registerChannel(info, plainFactory<NonMtMisalignmentChannel>());

        info.name = "nonmt-stealthy-misalignment";
        info.description =
            "Non-MT stealthy misalignment channel (Table III, Sec. V-D)";
        info.defaultConfig = misalignmentDefaults(true);
        registerChannel(info, plainFactory<NonMtMisalignmentChannel>());
    }

    // ---- Table III: MT (SMT) timing channels (Sec. V-A/B). ----
    {
        ChannelInfo info;
        info.requiresSmt = true;

        info.name = "mt-eviction";
        info.description =
            "MT (SMT) eviction channel (Table III, Sec. V-A)";
        info.defaultConfig = evictionDefaults(false);
        registerChannel(info, plainFactory<MtEvictionChannel>());

        info.name = "mt-misalignment";
        info.description =
            "MT (SMT) misalignment channel (Table III, Sec. V-B)";
        info.defaultConfig = misalignmentDefaults(false);
        registerChannel(info, plainFactory<MtMisalignmentChannel>());
    }

    // ---- Table IV: slow-switch / LCP channel (Sec. V-E). ----
    {
        ChannelInfo info;
        info.name = "slow-switch";
        info.description =
            "Non-MT slow-switch (LCP) channel (Table IV, Sec. V-E)";
        info.defaultConfig.r = 16;
        info.defaultConfig.rounds = 20;
        info.mixBlockChains = false; // LCP add loops: any base.
        registerChannel(info, plainFactory<SlowSwitchChannel>());
    }

    // ---- Table V: power channels via RAPL (Sec. VII). ----
    {
        ChannelInfo info;
        info.powerObservable = true;
        info.defaultExtras.power.rounds = 20000;

        info.name = "power-eviction";
        info.description =
            "Non-MT power eviction channel via RAPL (Table V, Sec. VII)";
        info.defaultConfig = evictionDefaults(true);
        info.defaultConfig.preambleBits = 8;
        registerChannel(info, powerFactory<PowerEvictionChannel>());

        info.name = "power-misalignment";
        info.description = "Non-MT power misalignment channel via RAPL"
                           " (Table V, Sec. VII)";
        info.defaultConfig = misalignmentDefaults(true);
        info.defaultConfig.preambleBits = 8;
        registerChannel(info, powerFactory<PowerMisalignmentChannel>());
    }

    // ---- Table VI: SGX enclave channels (Sec. VIII). ----
    {
        ChannelInfo info;
        info.requiresSgx = true;

        info.name = "sgx-nonmt-fast-eviction";
        info.description =
            "Non-MT fast eviction channel from SGX (Table VI)";
        info.defaultConfig = evictionDefaults(false);
        info.defaultConfig.preambleBits = 10;
        registerChannel(info, sgxFactory<SgxNonMtEvictionChannel>());

        info.name = "sgx-nonmt-stealthy-eviction";
        info.description =
            "Non-MT stealthy eviction channel from SGX (Table VI)";
        info.defaultConfig = evictionDefaults(true);
        info.defaultConfig.preambleBits = 10;
        registerChannel(info, sgxFactory<SgxNonMtEvictionChannel>());

        info.name = "sgx-nonmt-fast-misalignment";
        info.description =
            "Non-MT fast misalignment channel from SGX (Table VI)";
        info.defaultConfig = misalignmentDefaults(false);
        info.defaultConfig.preambleBits = 10;
        registerChannel(info, sgxFactory<SgxNonMtMisalignmentChannel>());

        info.name = "sgx-nonmt-stealthy-misalignment";
        info.description =
            "Non-MT stealthy misalignment channel from SGX (Table VI)";
        info.defaultConfig = misalignmentDefaults(true);
        info.defaultConfig.preambleBits = 10;
        registerChannel(info, sgxFactory<SgxNonMtMisalignmentChannel>());

        info.requiresSmt = true;

        info.name = "sgx-mt-eviction";
        info.description =
            "MT eviction channel from an SGX enclave (Table VI)";
        info.defaultConfig = evictionDefaults(false);
        info.defaultConfig.preambleBits = 10;
        registerChannel(info, sgxFactory<SgxMtEvictionChannel>());

        info.name = "sgx-mt-misalignment";
        info.description =
            "MT misalignment channel from an SGX enclave (Table VI)";
        info.defaultConfig = misalignmentDefaults(false);
        info.defaultConfig.preambleBits = 10;
        registerChannel(info, sgxFactory<SgxMtMisalignmentChannel>());
    }
}

void
ChannelRegistry::registerChannel(ChannelInfo info, ChannelFactory factory)
{
    lf_assert(!info.name.empty(), "channel name must not be empty");
    lf_assert(static_cast<bool>(factory),
              "channel %s needs a factory", info.name.c_str());
    if (find(info.name) != nullptr) {
        lf_panic("duplicate channel registration: %s",
                 info.name.c_str());
    }
    entries_.push_back({std::move(info), std::move(factory)});
}

const ChannelRegistry::Entry *
ChannelRegistry::find(const std::string &name) const
{
    for (const Entry &entry : entries_)
        if (entry.info.name == name)
            return &entry;
    return nullptr;
}

bool
ChannelRegistry::has(const std::string &name) const
{
    return find(name) != nullptr;
}

const ChannelInfo &
ChannelRegistry::info(const std::string &name) const
{
    const Entry *entry = find(name);
    if (entry == nullptr)
        lf_fatal("unknown channel \"%s\" (see --list)", name.c_str());
    return entry->info;
}

std::vector<std::string>
ChannelRegistry::names() const
{
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const Entry &entry : entries_)
        names.push_back(entry.info.name);
    return names;
}

std::unique_ptr<CovertChannel>
ChannelRegistry::make(const std::string &name, Core &core,
                      const ChannelConfig &cfg,
                      const ChannelExtras &extras) const
{
    const Entry *entry = find(name);
    if (entry == nullptr)
        lf_fatal("unknown channel \"%s\" (see --list)", name.c_str());
    return entry->factory(core, cfg, extras);
}

std::vector<std::string>
allChannelNames()
{
    return ChannelRegistry::instance().names();
}

bool
hasChannel(const std::string &name)
{
    return ChannelRegistry::instance().has(name);
}

const ChannelInfo &
channelInfo(const std::string &name)
{
    return ChannelRegistry::instance().info(name);
}

ChannelConfig
defaultChannelConfig(const std::string &name)
{
    return channelInfo(name).defaultConfig;
}

std::unique_ptr<CovertChannel>
makeChannel(const std::string &name, Core &core,
            const ChannelConfig &cfg)
{
    return makeChannel(name, core, cfg,
                       channelInfo(name).defaultExtras);
}

std::unique_ptr<CovertChannel>
makeChannel(const std::string &name, Core &core,
            const ChannelConfig &cfg, const ChannelExtras &extras)
{
    return ChannelRegistry::instance().make(name, core, cfg, extras);
}

std::unique_ptr<CovertChannel>
makeChannel(const std::string &name, TrialContext &ctx)
{
    return makeChannel(name, ctx.core(), ctx.config(), ctx.extras());
}

std::unique_ptr<CovertChannel>
makeChannelWithDefaults(const std::string &name, Core &core)
{
    const ChannelInfo &info = channelInfo(name);
    return makeChannel(name, core, info.defaultConfig,
                       info.defaultExtras);
}

bool
channelSupportedOn(const std::string &name, const CpuModel &model)
{
    const ChannelInfo &info = channelInfo(name);
    if (info.requiresSmt && !model.smtEnabled)
        return false;
    if (info.requiresSgx && !model.sgx.supported)
        return false;
    return true;
}

bool
applyChannelOverride(ChannelConfig &cfg, ChannelExtras &extras,
                     const std::string &key, double value)
{
    // Int keys saturate; the Addr-typed bases may exceed INT_MAX
    // (resolveConfig() range-checks them first).
    if (key == "targetSet") cfg.targetSet = clampToInt(value);
    else if (key == "altSet") cfg.altSet = clampToInt(value);
    else if (key == "N") cfg.N = clampToInt(value);
    else if (key == "d") cfg.d = clampToInt(value);
    else if (key == "M") cfg.M = clampToInt(value);
    else if (key == "r") cfg.r = clampToInt(value);
    else if (key == "rounds") cfg.rounds = clampToInt(value);
    else if (key == "initIters") cfg.initIters = clampToInt(value);
    else if (key == "stealthy") cfg.stealthy = value != 0.0;
    else if (key == "mtSteps") cfg.mtSteps = clampToInt(value);
    else if (key == "mtMeasPerStep") cfg.mtMeasPerStep = clampToInt(value);
    else if (key == "mtSenderIters") cfg.mtSenderIters = clampToInt(value);
    else if (key == "preambleBits") cfg.preambleBits = clampToInt(value);
    else if (key == "repetition") cfg.repetition = clampToInt(value);
    else if (key == "receiverBase")
        cfg.receiverBase = static_cast<Addr>(value);
    else if (key == "senderBase")
        cfg.senderBase = static_cast<Addr>(value);
    else if (key == "powerRounds") extras.power.rounds = clampToInt(value);
    else if (key == "sgxRounds") extras.sgx.rounds = clampToInt(value);
    else if (key == "sgxMtSteps") extras.sgx.mtSteps = clampToInt(value);
    else if (key == "sgxMtMeasPerStep")
        extras.sgx.mtMeasPerStep = clampToInt(value);
    else return false;
    return true;
}

std::vector<std::string>
channelOverrideKeys()
{
    return {"targetSet", "altSet", "N", "d", "M", "r", "rounds",
            "initIters", "stealthy", "mtSteps", "mtMeasPerStep",
            "mtSenderIters", "preambleBits", "repetition",
            "receiverBase", "senderBase", "powerRounds", "sgxRounds",
            "sgxMtSteps", "sgxMtMeasPerStep"};
}

} // namespace lf
