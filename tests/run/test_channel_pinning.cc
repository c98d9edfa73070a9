/**
 * @file
 * Pins the simulated output of every registry channel on every CPU
 * model. Each cell runs one short trial and records the channel's
 * display name() plus a FNV-1a hash of its JsonSink row; the lines
 * are compared against tests/run/golden/channel_pinning.golden. Any
 * change to a channel's programs, protocol loop, RNG draw order or
 * timing model shows up as a changed hash.
 *
 * Three passes cover the channel paths the paper tables exercise:
 * the quiet machine, the stealthy bit-0 encodings, and a noisy
 * co-runner against a partitioned (defended) DSB. Power and SGX
 * amplification counts are cut down so the whole grid runs in about
 * a second. Refresh the golden after an intentional model change
 * with:
 *
 *   lf_run_test_channel_pinning --update-golden     (or set
 *   LF_UPDATE_GOLDEN=1)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "run/experiment.hh"
#include "run/sinks.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

bool update_golden = false;

std::string
goldenPath()
{
#ifdef LF_SOURCE_ROOT
    return std::string(LF_SOURCE_ROOT) +
        "/tests/run/golden/channel_pinning.golden";
#else
    return "tests/run/golden/channel_pinning.golden";
#endif
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

struct Pass
{
    const char *name;
    std::map<std::string, double> overrides;
};

/** One line per (pass, channel, CPU): the display name and the row
 *  hash, tab-separated (CPU names contain spaces). */
std::string
renderPinnedGrid()
{
    const std::vector<Pass> passes = {
        {"quiet", {}},
        {"stealthy", {{"stealthy", 1}}},
        {"noisy-defended",
         {{"env.corunner_intensity", 0.5},
          {"defense.partition_dsb", 1}}},
    };
    std::ostringstream out;
    std::uint64_t seed = 100;
    for (const Pass &pass : passes) {
        for (const std::string &name : allChannelNames()) {
            for (const CpuModel *cpu : allCpuModels()) {
                ExperimentSpec spec;
                spec.channel = name;
                spec.cpu = cpu->name;
                spec.seed = ++seed;
                spec.messageBits = 8;
                spec.overrides = pass.overrides;
                spec.overrides["mtSteps"] = 4;
                spec.overrides["powerRounds"] = 200;
                spec.overrides["sgxRounds"] = 100;
                spec.overrides["sgxMtSteps"] = 4;

                const ExperimentResult res = runExperiment(spec);
                std::ostringstream row;
                JsonSink().writeRow(res, row);
                char hash[17];
                std::snprintf(hash, sizeof(hash), "%016llx",
                              static_cast<unsigned long long>(
                                  fnv1a(row.str())));
                out << pass.name << '\t' << name << '\t' << cpu->name
                    << '\t'
                    << (res.ok ? res.result.channelName
                               : std::string("-"))
                    << '\t' << hash << '\n';
            }
        }
    }
    return out.str();
}

TEST(ChannelPinning, EveryChannelMatchesGolden)
{
    const std::string rendered = renderPinnedGrid();
    const std::string path = goldenPath();
    if (update_golden) {
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << rendered;
        ASSERT_TRUE(out.good());
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with --update-golden)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(rendered, expected.str())
        << "simulated channel output drifted from " << path
        << " — if intentional, refresh with --update-golden";
}

} // namespace
} // namespace lf

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden")
            lf::update_golden = true;
    }
    if (const char *env = std::getenv("LF_UPDATE_GOLDEN")) {
        if (env[0] != '\0' && env[0] != '0')
            lf::update_golden = true;
    }
    return RUN_ALL_TESTS();
}
