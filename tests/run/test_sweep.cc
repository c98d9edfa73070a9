/**
 * @file
 * Sweep-engine tests: cartesian expansion order and labels, shard
 * partitioning (the union of all shards is exactly the full grid,
 * seeds included), trial-seed decorrelation, spec validation, cell
 * aggregation, and "model." CPU-knob overrides.
 */

#include <gtest/gtest.h>

#include <set>

#include "run/sweep.hh"
#include "sim/cpu_model.hh"

namespace lf {
namespace {

SweepSpec
smallGrid()
{
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction", "slow-switch"};
    sweep.cpus = {"Gold 6226", "E-2288G"};
    sweep.axes = {{"rounds", {5, 10, 20}}};
    sweep.seed = 11;
    sweep.messageBits = 8;
    return sweep;
}

bool
sameSpec(const ExperimentSpec &a, const ExperimentSpec &b)
{
    return a.channel == b.channel && a.cpu == b.cpu &&
        a.seed == b.seed && a.trial == b.trial && a.label == b.label &&
        a.pattern == b.pattern && a.messageBits == b.messageBits &&
        a.preambleBits == b.preambleBits && a.overrides == b.overrides;
}

TEST(SweepExpansion, CellCountAndOrder)
{
    const SweepSpec sweep = smallGrid();
    EXPECT_EQ(sweepCellCount(sweep), 12u);

    const auto batch = expandSweep(sweep);
    ASSERT_EQ(batch.size(), 12u);
    // Channel-major, then CPU, then the axis (last axis fastest).
    EXPECT_EQ(batch[0].channel, "nonmt-fast-eviction");
    EXPECT_EQ(batch[0].cpu, "Gold 6226");
    EXPECT_EQ(batch[0].overrides.at("rounds"), 5);
    EXPECT_EQ(batch[1].overrides.at("rounds"), 10);
    EXPECT_EQ(batch[3].cpu, "E-2288G");
    EXPECT_EQ(batch[6].channel, "slow-switch");
    // Cell 0 keeps the sweep's base seed.
    EXPECT_EQ(batch[0].seed, 11u);
}

TEST(SweepExpansion, AutoLabelsNameTheVaryingDimensions)
{
    const auto batch = expandSweep(smallGrid());
    EXPECT_EQ(batch[0].label, "nonmt-fast-eviction rounds=5");
    EXPECT_EQ(batch[7].label, "slow-switch rounds=10");

    SweepSpec fixed = smallGrid();
    fixed.label = "row A";
    for (const ExperimentSpec &spec : expandSweep(fixed))
        EXPECT_EQ(spec.label, "row A");

    // A one-channel, no-axis sweep labels cells by channel name.
    SweepSpec plain;
    plain.channels = {"slow-switch"};
    plain.cpus = {"Gold 6226"};
    EXPECT_EQ(expandSweep(plain)[0].label, "slow-switch");
}

TEST(SweepExpansion, ShardsPartitionTheGridExactly)
{
    SweepSpec sweep = smallGrid();
    sweep.trials = 2;
    const auto full = expandSweep(sweep);

    // Round-robin: cell c goes to shard c % n, trials riding along.
    std::vector<std::vector<ExperimentSpec>> shards;
    std::size_t total = 0;
    for (int s = 0; s < 3; ++s) {
        shards.push_back(expandSweep(sweep, {s, 3}));
        total += shards.back().size();
    }
    ASSERT_EQ(total, full.size());

    std::vector<std::size_t> cursor(3, 0);
    for (std::size_t i = 0; i < full.size(); ++i) {
        const std::size_t cell = i / 2; // trials = 2
        const auto shard = static_cast<std::size_t>(cell % 3);
        ASSERT_LT(cursor[shard], shards[shard].size());
        EXPECT_TRUE(sameSpec(full[i], shards[shard][cursor[shard]]))
            << "row " << i;
        ++cursor[shard];
    }
}

TEST(SweepExpansion, SeedsAreUniqueAcrossCellsAndTrials)
{
    SweepSpec sweep = smallGrid();
    sweep.trials = 4;
    std::set<std::uint64_t> seeds;
    for (const ExperimentSpec &spec : expandSweep(sweep))
        seeds.insert(spec.seed);
    EXPECT_EQ(seeds.size(), 48u);
}

TEST(SweepValidation, RejectsBadGrids)
{
    SweepSpec sweep = smallGrid();
    sweep.channels.push_back("no-such-channel");
    EXPECT_NE(validateSweepSpec(sweep).find("unknown channel"),
              std::string::npos);

    sweep = smallGrid();
    sweep.cpus = {"no-such-cpu"};
    EXPECT_NE(validateSweepSpec(sweep).find("unknown CPU"),
              std::string::npos);

    sweep = smallGrid();
    sweep.axes.push_back({"bogusKnob", {1}});
    EXPECT_NE(validateSweepSpec(sweep).find("unknown sweep axis"),
              std::string::npos);

    sweep = smallGrid();
    sweep.axes.push_back({"rounds", {40}});
    EXPECT_NE(validateSweepSpec(sweep).find("duplicate sweep axis"),
              std::string::npos);

    sweep = smallGrid();
    sweep.baseOverrides["rounds"] = 30;
    EXPECT_NE(validateSweepSpec(sweep).find("both swept and set"),
              std::string::npos);

    sweep = smallGrid();
    sweep.axes[0].values.clear();
    EXPECT_NE(validateSweepSpec(sweep).find("no values"),
              std::string::npos);

    sweep = smallGrid();
    sweep.trials = 0;
    EXPECT_FALSE(validateSweepSpec(sweep).empty());

    EXPECT_TRUE(validateSweepSpec(smallGrid()).empty());
}

TEST(SweepValidation, RejectsBadShards)
{
    const SweepSpec sweep = smallGrid(); // 12 cells
    EXPECT_TRUE(validateSweepShard(sweep, {0, 1}).empty());
    EXPECT_TRUE(validateSweepShard(sweep, {11, 12}).empty());
    EXPECT_FALSE(validateSweepShard(sweep, {3, 3}).empty());
    EXPECT_FALSE(validateSweepShard(sweep, {-1, 3}).empty());
    EXPECT_FALSE(validateSweepShard(sweep, {0, 13}).empty());
}

TEST(SweepAggregation, GroupsTrialsIntoCells)
{
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {"E-2288G"};
    sweep.axes = {{"d", {4, 6}}};
    sweep.trials = 3;
    sweep.messageBits = 16;
    sweep.seed = 5;

    const auto results = runSweep(sweep, ExperimentRunner(2));
    ASSERT_EQ(results.size(), 6u);

    const auto cells = aggregateSweep(results);
    ASSERT_EQ(cells.size(), 2u);
    for (const SweepCellSummary &cell : cells) {
        EXPECT_EQ(cell.trials, 3);
        EXPECT_EQ(cell.okTrials, 3);
        EXPECT_EQ(cell.skippedTrials, 0);
        EXPECT_EQ(cell.failedTrials, 0);
        EXPECT_EQ(cell.errorRate.count(), 3u);
        EXPECT_GT(cell.transmissionKbps.mean(), 0.0);
        // Capacity and effective rate never exceed the raw rate.
        EXPECT_LE(cell.capacityKbps.mean(),
                  cell.transmissionKbps.mean() + 1e-9);
        EXPECT_LE(cell.effectiveKbps.mean(),
                  cell.transmissionKbps.mean() + 1e-9);
    }
    EXPECT_EQ(cells[0].overrides.at("d"), 4);
    EXPECT_EQ(cells[1].overrides.at("d"), 6);

    const std::string summary =
        SweepSummarySink("test").render(results);
    EXPECT_NE(summary.find("d=4"), std::string::npos);
    EXPECT_NE(summary.find("3/3"), std::string::npos);
}

TEST(SweepAggregation, SkippedAndFailedRowsAreCounted)
{
    std::vector<ExperimentSpec> specs;
    ExperimentSpec spec;
    spec.channel = "mt-eviction";
    spec.cpu = "E-2288G"; // SMT disabled -> skipped
    specs.push_back(spec);
    spec.overrides["bogus"] = 1; // -> failed
    specs.push_back(spec);

    const auto cells =
        aggregateSweep(ExperimentRunner(1).run(specs));
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].skippedTrials, 1);
    EXPECT_EQ(cells[1].failedTrials, 1);
    EXPECT_EQ(cells[0].okTrials + cells[1].okTrials, 0);
}

TEST(ModelOverrides, FreqGhzScalesTheChannelRate)
{
    ExperimentSpec spec;
    spec.channel = "nonmt-fast-eviction";
    spec.cpu = "E-2288G";
    spec.seed = 22;
    spec.messageBits = 40;

    spec.overrides["model.freqGhz"] = 2.0;
    const auto slow = runExperiment(spec);
    spec.overrides["model.freqGhz"] = 4.0;
    const auto fast = runExperiment(spec);
    ASSERT_TRUE(slow.ok);
    ASSERT_TRUE(fast.ok);
    EXPECT_NEAR(fast.result.transmissionKbps /
                    slow.result.transmissionKbps,
                2.0, 0.2);
}

TEST(ModelOverrides, SmtDisableSkipsMtChannels)
{
    ExperimentSpec spec;
    spec.channel = "mt-eviction";
    spec.cpu = "Gold 6226";
    spec.overrides["model.smtEnabled"] = 0;
    const auto res = runExperiment(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.skipped);
}

TEST(ModelOverrides, UnknownAndInvalidKeysBecomeErrorRows)
{
    ExperimentSpec spec;
    spec.channel = "slow-switch";
    spec.cpu = "Gold 6226";
    spec.overrides["model.bogus"] = 1;
    auto res = runExperiment(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("unknown model override"),
              std::string::npos);

    // Entry and exit share one transition cost (model.sgxEntryCycles);
    // there is no separate exit knob to accept and ignore.
    spec.overrides.clear();
    spec.overrides["model.sgxExitCycles"] = 100000;
    res = runExperiment(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("unknown model override"),
              std::string::npos);

    spec.overrides.clear();
    spec.overrides["model.freqGhz"] = 0.0;
    res = runExperiment(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("freqGhz"), std::string::npos);

    spec.overrides.clear();
    spec.overrides["model.spikeProb"] = 1.5;
    res = runExperiment(spec);
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.error.find("spikeProb"), std::string::npos);
}

TEST(ModelOverrides, KeyListMatchesApplier)
{
    CpuModel scratch = gold6226();
    for (const std::string &key : modelOverrideKeys()) {
        EXPECT_TRUE(isModelOverrideKey(key)) << key;
        EXPECT_TRUE(applyModelOverride(scratch, key, 1.0)) << key;
    }
    EXPECT_FALSE(applyModelOverride(scratch, "model.nope", 1.0));
    EXPECT_FALSE(applyModelOverride(scratch, "freqGhz", 1.0));
}

TEST(EnvAxes, ExpandAndLabelLikeAnyOtherAxis)
{
    // env.* keys are first-class sweep dimensions: grid expansion,
    // auto-labels, and validation treat them exactly like the
    // ChannelConfig and model.* knobs.
    SweepSpec sweep;
    sweep.channels = {"nonmt-fast-eviction"};
    sweep.cpus = {"Gold 6226"};
    sweep.axes = {{"env.corunner_intensity", {0.0, 0.5, 1.0}}};
    EXPECT_EQ(validateSweepSpec(sweep), "");
    EXPECT_EQ(sweepCellCount(sweep), 3u);

    const auto batch = expandSweep(sweep);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[1].label, "env.corunner_intensity=0.5");
    EXPECT_EQ(batch[1].overrides.at("env.corunner_intensity"), 0.5);

    // Swept-and-set conflicts are caught like for any other key.
    sweep.baseOverrides["env.corunner_intensity"] = 0.2;
    EXPECT_NE(
        validateSweepSpec(sweep).find("env.corunner_intensity"),
        std::string::npos);
}

} // namespace
} // namespace lf
