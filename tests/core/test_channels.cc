/**
 * @file
 * Integration tests for the covert channels: every channel family must
 * transmit an alternating message with a usable error rate on every
 * machine it applies to, with sane transmission rates; variants must
 * order the way the paper's Table III orders them.
 */

#include <gtest/gtest.h>

#include <cctype>

#include "common/message.hh"
#include "core/channel_registry.hh"
#include "core/trial_context.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

std::vector<bool>
message(std::size_t bits = 60)
{
    Rng rng(3);
    return makeMessage(MessagePattern::Alternating, bits, rng);
}

ChannelConfig
evictCfg(bool stealthy = false)
{
    ChannelConfig cfg;
    cfg.d = 6;
    cfg.stealthy = stealthy;
    return cfg;
}

ChannelConfig
misalignCfg(bool stealthy = false)
{
    ChannelConfig cfg;
    cfg.d = 5;
    cfg.M = 8;
    cfg.stealthy = stealthy;
    return cfg;
}

// ---- Parameterized over all four CPU models. ----

class NonMtChannelsOnCpu
    : public ::testing::TestWithParam<const CpuModel *>
{
};

TEST_P(NonMtChannelsOnCpu, FastEvictionWorks)
{
    TrialContext ctx(*GetParam(), 11);
    const auto channel = makeChannel("nonmt-fast-eviction",
                                     ctx.core(), evictCfg());
    const auto res = channel->transmit(message(), ctx);
    EXPECT_LT(res.errorRate, 0.12);
    EXPECT_GT(res.transmissionKbps, 100.0);
    EXPECT_LT(res.transmissionKbps, 20000.0);
}

TEST_P(NonMtChannelsOnCpu, StealthyEvictionWorks)
{
    TrialContext ctx(*GetParam(), 12);
    const auto channel = makeChannel("nonmt-stealthy-eviction",
                                     ctx.core(), evictCfg(true));
    const auto res = channel->transmit(message(), ctx);
    EXPECT_LT(res.errorRate, 0.2);
}

TEST_P(NonMtChannelsOnCpu, FastMisalignmentWorks)
{
    TrialContext ctx(*GetParam(), 13);
    const auto channel = makeChannel("nonmt-fast-misalignment",
                                     ctx.core(), misalignCfg());
    const auto res = channel->transmit(message(), ctx);
    EXPECT_LT(res.errorRate, 0.15);
}

TEST_P(NonMtChannelsOnCpu, StealthyMisalignmentBeatsGuessing)
{
    TrialContext ctx(*GetParam(), 14);
    const auto channel = makeChannel("nonmt-stealthy-misalignment",
                                     ctx.core(), misalignCfg(true));
    const auto res = channel->transmit(message(100), ctx);
    EXPECT_LT(res.errorRate, 0.35); // noisy but far from 50%
}

TEST_P(NonMtChannelsOnCpu, SlowSwitchWorks)
{
    TrialContext ctx(*GetParam(), 15);
    ChannelConfig cfg;
    cfg.r = 16;
    cfg.rounds = 20;
    const auto channel = makeChannel("slow-switch", ctx.core(), cfg);
    const auto res = channel->transmit(message(), ctx);
    EXPECT_LT(res.errorRate, 0.12);
    // Mixed issue must be distinguishable from ordered issue.
    EXPECT_NE(res.meanObs0, res.meanObs1);
}

TEST_P(NonMtChannelsOnCpu, FastBeatsStealthyRate)
{
    TrialContext fast_ctx(*GetParam(), 16);
    const auto fast = makeChannel("nonmt-fast-eviction",
                                  fast_ctx.core(), evictCfg(false));
    const auto fast_res = fast->transmit(message(), fast_ctx);
    TrialContext stealthy_ctx(*GetParam(), 16);
    const auto stealthy = makeChannel("nonmt-stealthy-eviction",
                                      stealthy_ctx.core(), evictCfg(true));
    const auto stealthy_res = stealthy->transmit(message(),
                                                 stealthy_ctx);
    EXPECT_GT(fast_res.transmissionKbps,
              stealthy_res.transmissionKbps * 0.99);
}

INSTANTIATE_TEST_SUITE_P(
    AllCpus, NonMtChannelsOnCpu,
    ::testing::ValuesIn(allCpuModels()),
    [](const ::testing::TestParamInfo<const CpuModel *> &info) {
        std::string name = info.param->name;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

// ---- MT channels: SMT machines only. ----

class MtChannelsOnCpu
    : public ::testing::TestWithParam<const CpuModel *>
{
};

TEST_P(MtChannelsOnCpu, EvictionWorks)
{
    TrialContext ctx(*GetParam(), 21);
    const auto channel = makeChannel("mt-eviction", ctx.core(), evictCfg());
    const auto res = channel->transmit(message(40), ctx);
    EXPECT_LT(res.errorRate, 0.3);
    EXPECT_GT(res.transmissionKbps, 20.0);
    EXPECT_LT(res.transmissionKbps, 1000.0);
}

TEST_P(MtChannelsOnCpu, MisalignmentWorks)
{
    TrialContext ctx(*GetParam(), 22);
    const auto channel = makeChannel("mt-misalignment",
                                     ctx.core(), misalignCfg());
    const auto res = channel->transmit(message(40), ctx);
    EXPECT_LT(res.errorRate, 0.3);
}

TEST_P(MtChannelsOnCpu, NonMtFasterThanMt)
{
    TrialContext mt_ctx(*GetParam(), 23);
    const auto mt = makeChannel("mt-eviction", mt_ctx.core(), evictCfg());
    const auto mt_res = mt->transmit(message(30), mt_ctx);
    TrialContext nonmt_ctx(*GetParam(), 23);
    const auto nonmt = makeChannel("nonmt-fast-eviction",
                                   nonmt_ctx.core(), evictCfg());
    const auto nonmt_res = nonmt->transmit(message(30), nonmt_ctx);
    EXPECT_GT(nonmt_res.transmissionKbps,
              3.0 * mt_res.transmissionKbps);
}

INSTANTIATE_TEST_SUITE_P(
    SmtCpus, MtChannelsOnCpu, ::testing::ValuesIn(smtCpuModels()),
    [](const ::testing::TestParamInfo<const CpuModel *> &info) {
        std::string name = info.param->name;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

TEST(MtChannels, RequireSmt)
{
    Core core(xeonE2288G());
    EXPECT_DEATH(makeChannel("mt-eviction", core, evictCfg()), "SMT");
}

TEST(MtChannels, RequireUpperHalfTargetSet)
{
    Core core(gold6226());
    ChannelConfig cfg = evictCfg();
    cfg.targetSet = 3;
    const auto channel = makeChannel("mt-eviction", core, cfg);
    EXPECT_DEATH(channel->setup(), "partition-mapped");
}

// ---- Power channels (Gold 6226, Table V setting). ----

TEST(PowerChannels, EvictionTransmits)
{
    TrialContext ctx(gold6226(), 31);
    ChannelExtras extras;
    extras.power.rounds = 12000;
    const auto channel = makeChannel("power-eviction",
                                     ctx.core(), evictCfg(true), extras);
    Rng rng(4);
    const auto msg = makeMessage(MessagePattern::Alternating, 8, rng);
    const auto res = channel->transmit(msg, ctx, 6);
    EXPECT_LT(res.errorRate, 0.25);
    // Orders of magnitude below the timing channels.
    EXPECT_LT(res.transmissionKbps, 100.0);
}

TEST(PowerChannels, MisalignmentTransmits)
{
    TrialContext ctx(gold6226(), 32);
    ChannelExtras extras;
    extras.power.rounds = 20000;
    const auto channel = makeChannel("power-misalignment",
                                     ctx.core(), misalignCfg(true), extras);
    Rng rng(5);
    const auto msg = makeMessage(MessagePattern::Alternating, 8, rng);
    const auto res = channel->transmit(msg, ctx, 6);
    EXPECT_LT(res.errorRate, 0.25);
}

// ---- Config validation. ----

TEST(ChannelConfig, BadDPanics)
{
    Core core(gold6226());
    ChannelConfig cfg;
    cfg.d = 0;
    EXPECT_DEATH(makeChannel("nonmt-fast-eviction", core, cfg), "d=0");
}

TEST(ChannelConfig, MisalignNeedsMGreaterThanD)
{
    Core core(gold6226());
    ChannelConfig cfg;
    cfg.d = 8;
    cfg.M = 8;
    const auto channel = makeChannel("nonmt-fast-misalignment", core, cfg);
    EXPECT_DEATH(channel->setup(), "M > d");
}

} // namespace
} // namespace lf
