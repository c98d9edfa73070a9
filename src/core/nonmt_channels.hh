/**
 * @file
 * Slow-switch covert channel (Sec. V-E). The non-MT DSB channels of
 * Sec. V-C/D live in core/dsb_channel.hh.
 *
 * Sender and receiver are the same hardware thread; the receiver wraps
 * a timer around the encode loop and the secret modulates how much
 * frontend path switching the loop provokes (internal interference).
 */

#ifndef LF_CORE_NONMT_CHANNELS_HH
#define LF_CORE_NONMT_CHANNELS_HH

#include "core/channel.hh"
#include "frontend/prepared.hh"

namespace lf {

/**
 * Slow-switch channel (Sec. V-E).
 *
 * Encode 1: r pairs of (normal add, LCP add) — the alternation
 *           maximizes DSB<->MITE switching.
 * Encode 0: r normal adds then r LCP adds — consecutive LCP'd
 *           instructions serialize the predecoder instead.
 * Both variants execute the same instruction multiset; only the order
 * (and hence the frontend switch/stall profile) differs.
 */
class SlowSwitchChannel : public CovertChannel
{
  public:
    SlowSwitchChannel(Core &core, const ChannelConfig &config);

    std::string name() const override;
    void setup() override;
    double transmitBit(bool bit) override;

  private:
    PreparedChainPtr mixed_;
    PreparedChainPtr ordered_;
};

} // namespace lf

#endif // LF_CORE_NONMT_CHANNELS_HH
