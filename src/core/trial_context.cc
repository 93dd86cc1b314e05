#include "core/trial_context.hh"

#include "sim/period_skip.hh"

namespace lf {

namespace {

CpuModel
defendedModel(CpuModel model, const DefenseSpec &defense)
{
    applyDefenseToModel(model, defense);
    return model;
}

} // namespace

TrialContext::TrialContext(const CpuModel &model, std::uint64_t seed,
                           const ChannelConfig &config,
                           const ChannelExtras &extras,
                           const EnvironmentSpec &env,
                           const DefenseSpec &defense, int preamble_bits,
                           SlotGraph *graph)
    : model_(defendedModel(model, defense)), config_(config),
      extras_(extras), preambleBits_(preamble_bits), core_(model_, seed),
      env_(env, seed), defense_(defense, seed), slotGraph_(graph)
{
}

TrialContext::TrialContext(const CpuModel &model, std::uint64_t seed,
                           const EnvironmentSpec &env,
                           const DefenseSpec &defense)
    : TrialContext(model, seed, ChannelConfig{}, ChannelExtras{}, env,
                   defense, -1, nullptr)
{
}

SlotGraph *
TrialContext::slotGraph()
{
    if (!periodSkipEnabled() || !programCacheEnabled())
        return nullptr;
    return slotGraph_;
}

} // namespace lf
