#include "core/trial_context.hh"

#include "common/logging.hh"
#include "sim/period_skip.hh"

namespace lf {

std::uint64_t
deriveTrialRngSeed(std::uint64_t trial_seed)
{
    return splitmix64(trial_seed ^ 0x7472'6961'6c2d'726eULL);
}

TrialContext::TrialContext(const CpuModel &model, std::uint64_t seed,
                           const EnvironmentSpec &env,
                           const DefenseSpec &defense)
{
    bind(model, seed, ChannelConfig{}, ChannelExtras{}, env, defense);
}

void
TrialContext::bind(const CpuModel &model, std::uint64_t seed,
                   const ChannelConfig &config,
                   const ChannelExtras &extras,
                   const EnvironmentSpec &env,
                   const DefenseSpec &defense, int preamble_bits)
{
    // Tear the previous trial's defense down first: its destructor
    // uninstalls the domain-switch hook from the core we are about to
    // destroy. The old core goes before the new one is built, so a
    // rebind never holds two.
    defense_.reset();
    core_.reset();

    model_ = model;
    applyDefenseToModel(model_, defense);
    seed_ = seed;
    config_ = config;
    extras_ = extras;
    preambleBits_ = preamble_bits;

    core_ = std::make_unique<Core>(model_, seed);

    env_ = Environment(env, seed);
    defense_.emplace(defense, seed);
    rng_ = Rng(deriveTrialRngSeed(seed));
    cellNamed_ = false;
    slotTally_ = SlotTally{};
}

void
TrialContext::enterCell(const std::string &key)
{
    lf_assert(bound(), "TrialContext::enterCell() before bind()");
    if (!slotGraph_ || key != graphCell_) {
        slotGraph_ = std::make_unique<SlotGraph>();
        graphCell_ = key;
    }
    cellNamed_ = true;
}

const std::string &
TrialContext::cellKey() const
{
    static const std::string none;
    return cellNamed_ ? graphCell_ : none;
}

SlotGraph *
TrialContext::slotGraph()
{
    if (!cellNamed_ || !periodSkipEnabled() || !programCacheEnabled())
        return nullptr;
    return slotGraph_.get();
}

Core &
TrialContext::core()
{
    lf_assert(core_ != nullptr,
              "TrialContext used before bind()/resolveTrial()");
    return *core_;
}

Defense &
TrialContext::defense()
{
    lf_assert(defense_.has_value(),
              "TrialContext used before bind()/resolveTrial()");
    return *defense_;
}

} // namespace lf
