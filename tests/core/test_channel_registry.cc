/**
 * @file
 * Registry tests: the canonical name set matches the documented
 * channel list, every name constructs and transmits on every CPU
 * model it supports, and lookups fail loudly for unknown names.
 */

#include <gtest/gtest.h>

#include "core/channel_registry.hh"
#include "run/experiment.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

/** The documented channel set, in paper-table order (README.md). */
const std::vector<std::string> kDocumentedNames = {
    "nonmt-fast-eviction",
    "nonmt-stealthy-eviction",
    "nonmt-fast-misalignment",
    "nonmt-stealthy-misalignment",
    "mt-eviction",
    "mt-misalignment",
    "slow-switch",
    "power-eviction",
    "power-misalignment",
    "sgx-nonmt-fast-eviction",
    "sgx-nonmt-stealthy-eviction",
    "sgx-nonmt-fast-misalignment",
    "sgx-nonmt-stealthy-misalignment",
    "sgx-mt-eviction",
    "sgx-mt-misalignment",
};

TEST(ChannelRegistry, NamesMatchDocumentedSet)
{
    EXPECT_EQ(allChannelNames(), kDocumentedNames);
}

TEST(ChannelRegistry, HasChannel)
{
    for (const std::string &name : kDocumentedNames)
        EXPECT_TRUE(hasChannel(name)) << name;
    EXPECT_FALSE(hasChannel("no-such-channel"));
    EXPECT_FALSE(hasChannel(""));
}

TEST(ChannelRegistry, UnknownNameIsFatal)
{
    Core core(gold6226(), 1);
    EXPECT_EXIT(makeChannel("no-such-channel", core, ChannelConfig{}),
                ::testing::ExitedWithCode(1), "unknown channel");
}

TEST(ChannelRegistry, InfoIsSelfConsistent)
{
    Core core(xeonE2286G(), 1); // SMT and SGX: every channel applies
    for (const std::string &name : kDocumentedNames) {
        const ChannelInfo &info = channelInfo(name);
        EXPECT_EQ(info.name, name);
        EXPECT_FALSE(info.description.empty()) << name;
        // SMT-only and SGX-only prefixes encode the constraints.
        EXPECT_EQ(info.requiresSgx, name.rfind("sgx-", 0) == 0)
            << name;
        const bool mt = name.rfind("mt-", 0) == 0 ||
            name.rfind("sgx-mt-", 0) == 0;
        EXPECT_EQ(info.requiresSmt, mt) << name;
        // Every channel but slow-switch is a DSB channel whose name
        // ends in its primitive.
        const bool misalign =
            name.find("misalignment") != std::string::npos;
        if (name == "slow-switch") {
            EXPECT_FALSE(info.primitive.has_value());
        } else {
            EXPECT_TRUE(info.primitive ==
                        (misalign ? DsbPrimitive::Misalignment
                                  : DsbPrimitive::Eviction))
                << name;
        }
        EXPECT_EQ(makeChannel(name, core, info.defaultConfig)
                      ->observableIsPower(),
                  name.rfind("power-", 0) == 0)
            << name;
    }
}

TEST(ChannelRegistry, SupportConstraints)
{
    // The E-2288G has SMT disabled: no MT channels.
    EXPECT_FALSE(channelSupportedOn("mt-eviction", xeonE2288G()));
    EXPECT_TRUE(channelSupportedOn("mt-eviction", gold6226()));
    // The Gold 6226 has no SGX.
    EXPECT_FALSE(channelSupportedOn("sgx-nonmt-fast-eviction",
                                    gold6226()));
    EXPECT_TRUE(channelSupportedOn("sgx-nonmt-fast-eviction",
                                   xeonE2174G()));
    // SGX + MT needs both.
    EXPECT_FALSE(channelSupportedOn("sgx-mt-eviction", xeonE2288G()));
    EXPECT_TRUE(channelSupportedOn("sgx-mt-eviction", xeonE2286G()));
}

TEST(ChannelRegistry, ConstructsDirectly)
{
    // makeChannel with explicit config on a supported model.
    Core core(gold6226(), 7);
    auto channel = makeChannel("nonmt-fast-eviction", core,
                               defaultChannelConfig(
                                   "nonmt-fast-eviction"));
    ASSERT_NE(channel, nullptr);
    EXPECT_FALSE(channel->name().empty());
    EXPECT_EQ(&channel->core(), &core);
}

TEST(ChannelRegistry, OverrideKeysRoundTrip)
{
    ChannelConfig cfg;
    ChannelExtras extras;
    for (const std::string &key : channelOverrideKeys())
        EXPECT_TRUE(applyChannelOverride(cfg, extras, key, 4)) << key;
    EXPECT_FALSE(applyChannelOverride(cfg, extras, "bogus", 1));
    EXPECT_EQ(cfg.d, 4);
    EXPECT_EQ(extras.power.rounds, 4);
    EXPECT_EQ(extras.sgx.rounds, 4);
}

/**
 * Smoke: every registered channel transmits an 8-bit message on every
 * CPU model that supports it, with error rate no worse than guessing.
 * Power/SGX amplification rounds are cut down so the whole sweep
 * stays fast; the error bound is the smoke bound (0.5), not the
 * paper-grade bound of test_channels.cc.
 */
TEST(ChannelRegistry, EveryChannelTransmitsEverywhere)
{
    std::uint64_t seed = 40;
    for (const std::string &name : allChannelNames()) {
        for (const CpuModel *cpu : allCpuModels()) {
            ExperimentSpec spec;
            spec.channel = name;
            spec.cpu = cpu->name;
            spec.seed = ++seed;
            spec.messageBits = 8;
            spec.preambleBits = 8;
            spec.overrides["powerRounds"] = 4000;
            spec.overrides["sgxRounds"] = 1000;
            spec.overrides["sgxMtSteps"] = 20;

            const ExperimentResult res = runExperiment(spec);
            if (!channelSupportedOn(name, *cpu)) {
                EXPECT_TRUE(res.skipped) << name << " on " << cpu->name;
                EXPECT_FALSE(res.ok);
                continue;
            }
            ASSERT_TRUE(res.ok)
                << name << " on " << cpu->name << ": " << res.error;
            EXPECT_EQ(res.result.sent.size(), 8u);
            EXPECT_EQ(res.result.received.size(), 8u);
            EXPECT_LE(res.result.errorRate, 0.5)
                << name << " on " << cpu->name;
            EXPECT_GT(res.result.transmissionKbps, 0.0)
                << name << " on " << cpu->name;
            EXPECT_EQ(res.result.seed, spec.seed);
            EXPECT_EQ(res.result.preambleBits, 8);
        }
    }
}

} // namespace
} // namespace lf
