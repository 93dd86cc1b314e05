/**
 * @file
 * Power-based covert channels (Sec. VII).
 *
 * Same internal-interference encodings as the non-MT timing channels,
 * but the receiver observes average package power through the
 * simulated RAPL counter instead of the TSC. Because RAPL only
 * refreshes every ~50 us, each bit must stretch over many more
 * encode/decode rounds (p = q = 240,000 in the paper), which caps the
 * channel in the ~kbps range.
 */

#ifndef LF_CORE_POWER_CHANNELS_HH
#define LF_CORE_POWER_CHANNELS_HH

#include "core/channel.hh"
#include "frontend/prepared.hh"

namespace lf {

/** Extra configuration for power channels. */
struct PowerChannelConfig
{
    /** Encode/decode rounds per bit. The paper uses 240,000; the
     *  default here is smaller to keep simulation turnaround sane and
     *  benches report both the simulated rate and the rate normalized
     *  to the paper's round count. */
    int rounds = 20000;
};

/** Common machinery: RAPL-observed non-MT channel. */
class PowerChannelBase : public CovertChannel
{
  public:
    PowerChannelBase(Core &core, const ChannelConfig &config,
                     const PowerChannelConfig &power_config);

    void transmitBit(bool bit, SlotRaw &raw) override;

    /** The observable is per-round package energy, not cycles. */
    bool observableIsPower() const override { return true; }

    const PowerChannelConfig &powerConfig() const { return powerCfg_; }

  protected:
    static constexpr ThreadId kThread = 0;

    PowerChannelConfig powerCfg_;
    PreparedChainPtr receiver_;
    PreparedChainPtr encodeOne_;
    PreparedChainPtr encodeZero_; //!< Stealthy variant only.
};

/** Power variant of the eviction channel (Table V, left column). */
class PowerEvictionChannel : public PowerChannelBase
{
  public:
    PowerEvictionChannel(Core &core, const ChannelConfig &config,
                         const PowerChannelConfig &power_config);
    std::string name() const override;
    void setup() override;
};

/** Power variant of the misalignment channel (Table V, right). */
class PowerMisalignmentChannel : public PowerChannelBase
{
  public:
    PowerMisalignmentChannel(Core &core, const ChannelConfig &config,
                             const PowerChannelConfig &power_config);
    std::string name() const override;
    void setup() override;
};

} // namespace lf

#endif // LF_CORE_POWER_CHANNELS_HH
