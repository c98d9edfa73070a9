/**
 * @file
 * SGX enclave covert channels (Sec. VIII).
 *
 * Enclaves are modelled as an execution context with costly, jittery
 * entry/exit transitions that also flush the thread's pipeline-local
 * frontend state (the paper notes ITLB flushes at transitions do not
 * affect the attacks; the shared DSB/L1I persist).
 *
 * Non-MT SGX: the sender runs *inside* the enclave; the receiver can
 * only time the whole enclave call from outside. One entry and one
 * exit per bit; many more encode/decode rounds are interleaved inside
 * (p = q in the thousands) so the per-round frontend path difference
 * is amplified above the entry/exit jitter.
 *
 * MT SGX: the sender thread stays resident inside the enclave on the
 * sibling hardware thread; the receiver measures its own loop timing
 * exactly like the non-SGX MT channels.
 */

#ifndef LF_SGX_SGX_CHANNELS_HH
#define LF_SGX_SGX_CHANNELS_HH

#include "core/dsb_channel.hh"

namespace lf {

/** Non-MT SGX channel (Table VI). */
class SgxNonMtChannel : public DsbChannel
{
  public:
    SgxNonMtChannel(Core &core, const ChannelConfig &config,
                    DsbPrimitive primitive, const ChannelExtras &extras);
    std::string name() const override;
    double transmitBit(bool bit) override;

  private:
    SgxConfig sgxCfg_;
};

/** MT SGX channel (Table VI): the enclave-resident sender perturbs
 *  the shared frontend; entry happens once per bit. */
class SgxMtChannel : public DsbChannel
{
  public:
    SgxMtChannel(Core &core, const ChannelConfig &config,
                 DsbPrimitive primitive, const ChannelExtras &extras);
    std::string name() const override;
    double transmitBit(bool bit) override;

  private:
    SgxConfig sgxCfg_;
};

} // namespace lf

#endif // LF_SGX_SGX_CHANNELS_HH
