#include "core/nonmt_channels.hh"

#include "sim/executor.hh"

namespace lf {

namespace {

constexpr ThreadId kThread = 0;

} // namespace

SlowSwitchChannel::SlowSwitchChannel(Core &core,
                                     const ChannelConfig &config)
    : CovertChannel(core, config)
{
}

std::string
SlowSwitchChannel::name() const
{
    return "non-MT slow-switch";
}

void
SlowSwitchChannel::setup()
{
    mixed_ = prepareLcpAddLoop(cfg_.senderBase, LcpPattern::Mixed, cfg_.r,
                               dsbLineUops());
    ordered_ = prepareLcpAddLoop(cfg_.senderBase + 0x10000,
                                 LcpPattern::Ordered, cfg_.r,
                                 dsbLineUops());
}

double
SlowSwitchChannel::transmitBit(bool bit)
{
    const Cycles start = core_.cycle();
    chargeMeasurementOverhead(); // Init: start the timer.

    // Encode: the LCP issue order carries the bit.
    const PreparedChain &loop = bit ? *mixed_ : *ordered_;
    core_.setProgram(kThread, loop);
    runLoopIters(core_, kThread, loop,
                 static_cast<std::uint64_t>(cfg_.rounds));

    chargeMeasurementOverhead(); // Decode: stop the timer.
    const double elapsed = static_cast<double>(core_.cycle() - start);
    return core_.noisyMeasurement(elapsed);
}

} // namespace lf
