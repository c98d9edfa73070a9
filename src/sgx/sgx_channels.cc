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

SgxNonMtChannel::SgxNonMtChannel(Core &core, const ChannelConfig &config,
                                 DsbPrimitive primitive,
                                 const ChannelExtras &extras)
    : DsbChannel(core, config, primitive, false), sgxCfg_(extras.sgx)
{
    requireSgx(core);
}

std::string
SgxNonMtChannel::name() const
{
    return std::string("SGX non-MT ") +
        (cfg_.stealthy ? "stealthy " : "fast ") + primitiveName();
}

double
SgxNonMtChannel::transmitBit(bool bit)
{
    const Cycles start = core_.cycle();
    chargeMeasurementOverhead();           // receiver starts the timer
    core_.enclaveTransition(kReceiver);    // single enclave entry
    // Inside the enclave no per-round sync is needed: sender and
    // "receiver pattern" are phases of the same enclave code.
    runRounds(bit, sgxCfg_.rounds, 0);
    core_.clearProgram(kReceiver);
    core_.enclaveTransition(kReceiver);    // single enclave exit
    chargeMeasurementOverhead();           // receiver stops the timer
    const double elapsed = static_cast<double>(core_.cycle() - start);
    return core_.noisyMeasurement(elapsed);
}

SgxMtChannel::SgxMtChannel(Core &core, const ChannelConfig &config,
                           DsbPrimitive primitive,
                           const ChannelExtras &extras)
    : DsbChannel(core, config, primitive, true), sgxCfg_(extras.sgx)
{
    requireSgx(core);
}

std::string
SgxMtChannel::name() const
{
    return std::string("SGX MT ") + primitiveName();
}

double
SgxMtChannel::transmitBit(bool bit)
{
    // The enclave (sender) is entered once per bit on the sibling
    // hardware thread.
    if (bit)
        core_.enclaveTransition(kSender);
    const double mean =
        runMtSteps(bit, sgxCfg_.mtSteps, sgxCfg_.mtMeasPerStep);
    if (bit)
        core_.enclaveTransition(kSender);
    return mean;
}

} // namespace lf
