/** @file Integration tests for the SGX covert channels. */

#include <gtest/gtest.h>

#include <cctype>

#include "common/message.hh"
#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

std::vector<bool>
message(std::size_t bits = 30)
{
    Rng rng(6);
    return makeMessage(MessagePattern::Alternating, bits, rng);
}

ChannelExtras
fastSgx()
{
    ChannelExtras extras;
    extras.sgx.rounds = 2000; // keep tests quick
    extras.sgx.mtSteps = 40;
    extras.sgx.mtMeasPerStep = 10;
    return extras;
}

class SgxChannelsOnCpu
    : public ::testing::TestWithParam<const CpuModel *>
{
};

TEST_P(SgxChannelsOnCpu, NonMtEvictionWorks)
{
    TrialContext ctx(*GetParam(), 41);
    ChannelConfig cfg;
    cfg.d = 6;
    const auto channel = makeChannel("sgx-nonmt-fast-eviction",
                                     ctx.core(), cfg, fastSgx());
    const auto res = channel->transmit(message(), ctx, 8);
    EXPECT_LT(res.errorRate, 0.15);
    EXPECT_GT(res.transmissionKbps, 5.0);
    EXPECT_LT(res.transmissionKbps, 500.0);
}

TEST_P(SgxChannelsOnCpu, NonMtMisalignmentWorks)
{
    TrialContext ctx(*GetParam(), 42);
    ChannelConfig cfg;
    cfg.d = 5;
    cfg.M = 8;
    const auto channel = makeChannel("sgx-nonmt-fast-misalignment",
                                     ctx.core(), cfg, fastSgx());
    const auto res = channel->transmit(message(), ctx, 8);
    EXPECT_LT(res.errorRate, 0.15);
}

TEST_P(SgxChannelsOnCpu, SgxSlowerThanNonSgx)
{
    ChannelConfig cfg;
    cfg.d = 6;
    TrialContext sgx_ctx(*GetParam(), 43);
    const auto sgx_channel = makeChannel("sgx-nonmt-fast-eviction",
                                         sgx_ctx.core(), cfg, fastSgx());
    const auto sgx_res = sgx_channel->transmit(message(), sgx_ctx, 8);

    TrialContext plain_ctx(*GetParam(), 43);
    const auto plain = makeChannel("nonmt-fast-eviction",
                                   plain_ctx.core(), cfg);
    const auto plain_res = plain->transmit(message(), plain_ctx, 8);
    // Paper: SGX rates are 1/25 - 1/30 of non-SGX; with the reduced
    // test rounds we still require a large gap.
    EXPECT_GT(plain_res.transmissionKbps,
              5.0 * sgx_res.transmissionKbps);
}

INSTANTIATE_TEST_SUITE_P(
    SgxCpus, SgxChannelsOnCpu, ::testing::ValuesIn(sgxCpuModels()),
    [](const ::testing::TestParamInfo<const CpuModel *> &info) {
        std::string name = info.param->name;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(SgxMtChannels, EvictionWorksOnSmtSgxMachines)
{
    for (const CpuModel *cpu : sgxCpuModels()) {
        if (!cpu->smtEnabled)
            continue;
        TrialContext ctx(*cpu, 44);
        ChannelConfig cfg;
        cfg.d = 6;
        const auto channel = makeChannel("sgx-mt-eviction",
                                         ctx.core(), cfg, fastSgx());
        const auto res = channel->transmit(message(20), ctx, 6);
        EXPECT_LT(res.errorRate, 0.3) << cpu->name;
    }
}

TEST(SgxMtChannels, MisalignmentWorksOnSmtSgxMachines)
{
    for (const CpuModel *cpu : sgxCpuModels()) {
        if (!cpu->smtEnabled)
            continue;
        TrialContext ctx(*cpu, 45);
        ChannelConfig cfg;
        cfg.d = 5;
        cfg.M = 8;
        const auto channel = makeChannel("sgx-mt-misalignment",
                                         ctx.core(), cfg, fastSgx());
        const auto res = channel->transmit(message(20), ctx, 6);
        EXPECT_LT(res.errorRate, 0.3) << cpu->name;
    }
}

TEST(SgxChannels, RequireSgxSupport)
{
    Core core(gold6226()); // no SGX on the Gold 6226
    ChannelConfig cfg;
    cfg.d = 6;
    EXPECT_DEATH(makeChannel("sgx-nonmt-fast-eviction", core, cfg), "SGX");
}

TEST(SgxChannels, MtVariantRequiresSmt)
{
    Core core(xeonE2288G()); // SGX yes, SMT no
    ChannelConfig cfg;
    cfg.d = 6;
    EXPECT_DEATH(makeChannel("sgx-mt-eviction", core, cfg), "SMT");
}

} // namespace
} // namespace lf
