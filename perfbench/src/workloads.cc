#include "workloads.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign/campaign.hh"
#include "common.hh"
#include "core/channel_registry.hh"
#include "frontend/prepared.hh"
#include "obs/counters.hh"
#include "obs/trace.hh"
#include "paper_rates.hh"
#include "run/runner.hh"
#include "run/sinks.hh"
#include "run/sweep.hh"
#include "sim/cpu_model.hh"
#include "sim/snapshot.hh"

extern char **environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lf::ExperimentResult;
using lf::ExperimentSpec;
using lf::SweepSpec;

/** @name Workload shapes */
/// @{
/** Trials per cell of the short sweep: 20 cells -> 320 rows. A pass
 *  this size puts its tail at p95 (16 trials beyond), which a few slow
 *  trials on a shared host move far less than a p99, and gives a run
 *  many passes to take medians over. */
constexpr int kShortSweepTrials = 16;
constexpr std::size_t kShortMessageBits = 16;
/** Set-up processes timed per run, at least; setup_s is their median. */
constexpr int kSetupReps = 15;
/** Cold shards, run at once: with the runner's worker count on
 *  short-sweep, this fills the CPUs of a 4-CPU host but one. */
constexpr int kColdShards = 3;
constexpr int kWarmShards = 4;
/** Shard 0 of the cold campaign (107 rows) is killed after this many
 *  rows and then resumed. */
constexpr std::size_t kKillAfterRows = 50;
/** Warm re-plans per campaign pass: one takes milliseconds. */
constexpr int kWarmReps = 3;
/// @}

SweepSpec
gridOnAllCpus(std::vector<std::string> channels, std::uint64_t seed)
{
    SweepSpec spec;
    spec.channels = std::move(channels);
    for (const lf::CpuModel *model : lf::allCpuModels())
        spec.cpus.push_back(model->name);
    spec.seed = seed;
    return spec;
}

/** Every registered channel x every Table-I model at paper defaults:
 *  the rows of `lf_run --channel all --cpu all --seed S`. */
SweepSpec
registryGrid(std::uint64_t seed)
{
    return gridOnAllCpus(lf::allChannelNames(), seed);
}

SweepSpec
shortGrid(std::uint64_t seed, int trials)
{
    SweepSpec spec = gridOnAllCpus(
        {"nonmt-fast-eviction", "nonmt-stealthy-eviction",
         "nonmt-fast-misalignment", "nonmt-stealthy-misalignment",
         "slow-switch"},
        seed);
    spec.trials = trials;
    spec.messageBits = kShortMessageBits;
    return spec;
}

/** The workers of a multi-worker run: the runner's consuming thread
 *  takes one CPU, so workers + consumer stay within the CPUs. */
int
parallelWorkers()
{
    return std::max(1, usableCpus() - 1);
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::string
fmt(const char *format, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *format, ...)
{
    char buf[512];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return ratio(static_cast<double>(num), static_cast<double>(den));
}

// ---- Set-up ----

std::vector<ExperimentSpec>
expandChecked(const SweepSpec &spec)
{
    std::string error = lf::validateSweepSpec(spec);
    if (error.empty())
        error = lf::validateSweepSpecValues(spec);
    if (!error.empty())
        throw std::runtime_error("workload grid rejected: " + error);
    return lf::expandSweep(spec);
}

void
planOrThrow(const SweepSpec &spec, int shards, const fs::path &dir)
{
    const std::string error = lf::planCampaign(spec, shards, dir.string());
    if (!error.empty())
        throw std::runtime_error("plan failed: " + error);
}

/** The workload's grid. */
SweepSpec
workloadGrid(const Options &options)
{
    if (options.workload == "paper-registry")
        return registryGrid(options.seed);
    if (options.workload == "short-sweep")
        return shortGrid(options.seed, kShortSweepTrials);
    throw std::runtime_error("unknown workload '" + options.workload + "'");
}

/**
 * Set-up time as a fresh run pays it: the wall time of a process of
 * this program that starts, validates and expands the workload's grid
 * (everything a run does before its first trial) and exits. Process start
 * and static initialisation (channel registry, CPU models) are part of
 * it, so work moved out of the timed phase into start-up shows here.
 * setup_s is the median of at least kSetupReps such processes, spread
 * over the run (some before the first pass, one after each pass, the
 * rest at the end), so it samples the host across the run rather than
 * at one moment.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(const Options &options)
        : workload_(options.workload), seed_(std::to_string(options.seed))
    {
        for (int rep = 0; rep < kSetupReps / 3; ++rep)
            sample();
    }

    /** Time one set-up process. */
    void sample()
    {
        const char *argv[] = {"/proc/self/exe", "--workload",
                              workload_.c_str(), "--seed", seed_.c_str(),
                              "--setup-only", "1", nullptr};
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, "/dev/null",
                                         O_WRONLY, 0);
        const auto start = Clock::now();
        pid_t pid = 0;
        const int err = posix_spawn(&pid, argv[0], &actions, nullptr,
                                    const_cast<char **>(argv), environ);
        posix_spawn_file_actions_destroy(&actions);
        int status = 0;
        if (err != 0 || waitpid(pid, &status, 0) != pid ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("set-up process failed");
        seconds_.push_back(secondsSince(start));
    }

    /** Top up to kSetupReps samples; the median set-up time. */
    double medianS()
    {
        while (seconds_.size() < static_cast<std::size_t>(kSetupReps))
            sample();
        return median(seconds_);
    }

  private:
    std::string workload_;
    std::string seed_;
    std::vector<double> seconds_;
};

// ---- One pass of a grid through the ExperimentRunner ----

enum class RowStatus : unsigned char { Ok, Skipped, Bad };

struct PassMode
{
    int workers = 1;
    bool counters = false;
    bool trace = false;
};

struct Pass
{
    int workers = 1;
    double wallS = 0.0;
    std::vector<double> latencyMs; //!< Claim to delivery, ok rows.
    std::vector<std::uint64_t> hashes; //!< Per row, spec order.
    std::vector<RowStatus> status;
    std::size_t okRows = 0;
    lf::StreamStats stream;
    /** Counter totals (counters on only): all rows and per family. */
    CounterTotals all;
    std::array<CounterTotals, kFamilies> family;
    /** Rate sum and ok-row count per (channel, cpu) cell. */
    std::map<std::pair<std::string, std::string>, std::pair<double, int>>
        cellKbps;
    TraceBreakdown trace; //!< Trace on only.
};

/** An ok row whose result is plausible on its face. */
bool
wellFormed(const ExperimentResult &res)
{
    const lf::ChannelResult &r = res.result;
    return r.sent.size() == res.spec.messageBits &&
        std::isfinite(r.errorRate) && r.errorRate >= 0.0 &&
        std::isfinite(r.transmissionKbps) && r.transmissionKbps > 0.0;
}

void
tally(Pass &pass, const ExperimentResult &res, double latencyMs)
{
    if (res.skipped) {
        pass.status.push_back(RowStatus::Skipped);
        return;
    }
    if (!res.ok || !wellFormed(res)) {
        pass.status.push_back(RowStatus::Bad);
        return;
    }
    pass.status.push_back(RowStatus::Ok);
    ++pass.okRows;
    pass.latencyMs.push_back(latencyMs);
    auto &cell = pass.cellKbps[{res.spec.channel, res.spec.cpu}];
    cell.first += res.result.transmissionKbps;
    ++cell.second;
    if (res.counters) {
        const int width =
            lf::cpuModelByName(res.spec.cpu).frontend.issueWidth;
        pass.all.add(*res.counters, width);
        pass.family[familyOf(res.spec.channel)].add(*res.counters,
                                                    width);
    }
}

/**
 * Run @p specs once. Every pass starts from empty prepared-chain and
 * warm-snapshot caches, as a fresh `lf_run` process does. Rows stream
 * through a JsonSink (timed by the "bench_sink_row" span); each row's
 * bytes are fingerprinted. @p extra, when set, also receives every
 * row (the campaign workload's direct sweep summary).
 */
Pass
runPass(const std::vector<ExperimentSpec> &specs, const PassMode &mode,
        lf::ResultSink *extra = nullptr, std::ostream *extraOs = nullptr)
{
    lf::clearProgramCache();
    lf::clearWarmSnapshotCache();

    Pass pass;
    pass.workers = mode.workers;
    pass.hashes.reserve(specs.size());
    pass.status.reserve(specs.size());
    std::vector<std::int64_t> claimNs(specs.size(), 0);

    lf::ExperimentRunner runner(mode.workers);
    runner.setStatsSink(&pass.stream);
    // The probe runs on the claiming worker; the runner's slot publish
    // orders the write before the consumer's read in the callback.
    runner.setTrialProbe([&claimNs](std::size_t index, std::size_t) {
        claimNs[index] = nowNs();
    });

    lf::JsonSink sink("perfbench");
    std::ostringstream header;
    sink.writeHeader(header);

    const lf::obs::CounterScope counters(mode.counters);
    if (mode.trace) {
        lf::obs::clearTrace();
        lf::obs::setTraceEnabled(true);
    }
    std::size_t delivered = 0;
    const auto start = Clock::now();
    runner.run(specs, [&](const ExperimentResult &res) {
        const std::int64_t now = nowNs();
        const std::size_t index = delivered++;
        std::ostringstream row;
        {
            const lf::obs::TraceScope span("bench_sink_row");
            sink.writeRow(res, row);
        }
        std::string bytes = row.str();
        if (bytes.compare(0, 2, ",\n") == 0) // the row separator
            bytes.erase(0, 2);
        pass.hashes.push_back(fnv1a64(bytes));
        if (extra != nullptr)
            extra->writeRow(res, *extraOs);
        tally(pass, res, static_cast<double>(now - claimNs[index]) / 1e6);
    });
    pass.wallS = secondsSince(start);
    if (mode.trace) {
        lf::obs::setTraceEnabled(false);
        pass.trace = analyzeTrace(lf::obs::renderTraceJson(), specs);
        pass.trace.droppedEvents = lf::obs::traceDroppedEvents();
        lf::obs::clearTrace();
    }
    return pass;
}

double
trialsPerSecond(const Pass &pass)
{
    return ratio(static_cast<double>(pass.okRows), pass.wallS);
}

/** Mean |ln(sim / paper)| over the pass's cells that have a Table III
 *  or Table VI rate. */
double
paperRateLogError(const Pass &pass, std::size_t *cells)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &[cell, rate] : pass.cellKbps) {
        const double paper = paperRateKbps(cell.first, cell.second);
        if (paper <= 0.0 || rate.second == 0)
            continue;
        sum += std::fabs(std::log(rate.first / rate.second / paper));
        ++n;
    }
    if (cells != nullptr)
        *cells = n;
    return ratio(sum, static_cast<double>(n));
}

// ---- Row fingerprints ----

std::vector<std::uint64_t>
loadFingerprints(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read fingerprints " + path);
    std::vector<std::uint64_t> hashes;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        hashes.push_back(std::strtoull(line.c_str(), nullptr, 16));
    }
    return hashes;
}

void
writeFingerprints(const std::string &path, const Options &options,
                  const std::vector<ExperimentSpec> &specs,
                  const std::vector<std::uint64_t> &hashes)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    out << "# perfbench row fingerprints: FNV-1a 64 of each JsonSink row\n"
        << "# workload " << options.workload << " seed " << options.seed
        << " rows " << hashes.size() << "\n"
        << "# hash\tchannel\tcpu\ttrial\n";
    for (std::size_t i = 0; i < hashes.size() && i < specs.size(); ++i) {
        out << hex64(hashes[i]) << '\t' << specs[i].channel << '\t'
            << specs[i].cpu << '\t' << specs[i].trial << '\n';
    }
    if (!out)
        throw std::runtime_error("cannot write fingerprints " + path);
}

std::uint64_t
digest(const std::vector<std::uint64_t> &hashes)
{
    std::string bytes;
    for (const std::uint64_t h : hashes)
        bytes += hex64(h);
    return fnv1a64(bytes);
}

/**
 * Checks every pass's rows against the committed fingerprints (when
 * given) and against the first pass checked, so a row that differs
 * between worker counts or between passes fails too.
 */
class RowChecker
{
  public:
    explicit RowChecker(std::vector<std::uint64_t> expected)
        : expected_(std::move(expected))
    {
    }

    void check(const Pass &pass)
    {
        if (reference_.empty())
            reference_ = pass.hashes;
        for (std::size_t i = 0; i < pass.hashes.size(); ++i) {
            if (pass.status[i] == RowStatus::Skipped)
                continue;
            ++attempted;
            const std::uint64_t h = pass.hashes[i];
            const bool asReference =
                i < reference_.size() && reference_[i] == h;
            const bool asExpected = expected_.empty() ||
                (i < expected_.size() && expected_[i] == h);
            if (pass.status[i] == RowStatus::Bad || !asReference ||
                !asExpected)
                ++failed;
        }
        // Rows the reference has but this pass lacks are failures too.
        const std::size_t want =
            expected_.empty() ? reference_.size() : expected_.size();
        if (want > pass.hashes.size()) {
            attempted += want - pass.hashes.size();
            failed += want - pass.hashes.size();
        }
    }

    bool checksExpected() const { return !expected_.empty(); }

    std::size_t attempted = 0;
    std::size_t failed = 0;

  private:
    std::vector<std::uint64_t> expected_;
    std::vector<std::uint64_t> reference_;
};

std::vector<std::uint64_t>
expectedFor(const Options &options)
{
    return options.expectPath.empty() ? std::vector<std::uint64_t>{}
                                      : loadFingerprints(options.expectPath);
}

void
noteFingerprints(Outcome &out, const Options &options,
                 const RowChecker &checker,
                 const std::vector<std::uint64_t> &hashes)
{
    out.notes.push_back(fmt(
        "fingerprints: %zu rows, digest %s%s%s", hashes.size(),
        hex64(digest(hashes)).c_str(),
        checker.checksExpected() ? ", checked against " : "",
        checker.checksExpected() ? options.expectPath.c_str() : ""));
    if (!options.fingerprintsOut.empty())
        out.notes.push_back("fingerprints written to " +
                            options.fingerprintsOut);
}

void
addMetric(Outcome &out, const std::string &name, double value,
          const char *unit)
{
    out.metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

/** The end-to-end latency and throughput metrics over timed passes,
 *  each a median over the passes of a per-pass figure. */
void
addLatencyMetrics(Outcome &out, const std::vector<double> &rates,
                  const std::vector<std::vector<double>> &latencies,
                  const char *what)
{
    std::vector<double> p50s;
    std::vector<double> tails;
    Tail tail;
    for (const auto &ms : latencies) {
        p50s.push_back(hdQuantile(ms, 0.5));
        tail = tailOf(ms);
        tails.push_back(tail.value);
    }
    addMetric(out, "trials_per_s", median(rates), "1/s");
    addMetric(out, "trial_p50_ms", median(p50s), "ms");
    addMetric(out, "trial_tail_ms", median(tails), "ms");
    out.notes.push_back(fmt(
        "trial_tail_ms is the p%g of %zu %s per pass (median over %zu "
        "passes); trial_p50_ms the p50; both Harrell-Davis estimates",
        tail.percentile, tail.samples, what, latencies.size()));
    out.notes.push_back(fmt(
        "trials_per_s over passes: min %.6g  q1 %.6g  median %.6g  "
        "q3 %.6g  max %.6g", quantile(rates, 0.0), quantile(rates, 0.25),
        median(rates), quantile(rates, 0.75), quantile(rates, 1.0)));
}

void
addFailedNote(Outcome &out)
{
    out.notes.push_back(fmt(
        "failed_frac = %.6g (%zu failed of %zu attempted rows; skipped "
        "rows are not attempted)",
        ratio(static_cast<double>(out.failed),
              static_cast<double>(out.attempted)),
        out.failed, out.attempted));
}

// ---- The campaign layer ----

struct CampaignPass
{
    double planS = 0.0;
    /** Cold run: every shard to completion, shard 0 killed after
     *  kKillAfterRows and resumed. */
    double coldS = 0.0;
    double coldMergeS = 0.0;
    std::vector<double> warmS;  //!< Shard runs of each warm re-plan.
    std::vector<double> mergeS; //!< Every merge, cold and warm.
    std::vector<double> rowMs;  //!< Cold rows: time between a shard's completions.
    std::size_t executed = 0;
    std::size_t resumed = 0;
    std::size_t warmRows = 0;
    std::size_t warmHits = 0;
    std::size_t warmExecuted = 0;
    std::size_t okRows = 0;     //!< Of the cold campaign's merge.
    std::size_t attemptedRows = 0; //!< Non-skipped rows of all merges.
    std::size_t mismatches = 0; //!< Merges unlike the direct summary.
    std::size_t failedRows = 0;     //!< Rows of differing merges + error rows.
};

/** Run shard @p shard of the campaign in @p dir on one worker. The
 *  time between its row completions goes to @p rowMs when given. */
lf::ShardRunStats
runShard(const fs::path &dir, int shard, const std::string &cache,
         std::size_t maxNewRows, std::vector<double> *rowMs)
{
    lf::ShardRunOptions options;
    options.threads = 1;
    options.cacheDir = cache;
    options.maxNewRows = maxNewRows;
    auto lastRow = Clock::now();
    if (rowMs != nullptr) {
        options.onProgress = [&](const lf::ShardProgress &) {
            const auto now = Clock::now();
            rowMs->push_back(
                std::chrono::duration<double, std::milli>(now - lastRow)
                    .count());
            lastRow = now;
        };
    }
    lf::ShardRunStats stats;
    const std::string error =
        lf::runCampaignShard(dir.string(), shard, options, &stats);
    if (!error.empty())
        throw std::runtime_error("run-shard failed: " + error);
    return stats;
}

/**
 * One pass of the campaign lifecycle in a fresh @p root: plan, cold
 * run into an empty result cache, merge; then kWarmReps re-plans of
 * the same grid at a different shard count, each served from the
 * cache and merged. Every merge must equal @p directSummary byte for
 * byte. The cold shards run at once, one thread and one worker each,
 * as kColdShards run-shard processes would, which also keeps this
 * untimed pass short; shard 0 is killed after kKillAfterRows and
 * resumed in its thread.
 */
CampaignPass
runCampaignPass(const SweepSpec &grid, const fs::path &root,
                const std::string &directSummary)
{
    fs::remove_all(root);
    CampaignPass out;
    const std::string cache = (root / "cache").string();
    const auto merge = [&](const fs::path &dir) {
        std::string summary;
        lf::MergeStats stats;
        const auto start = Clock::now();
        const std::string error =
            lf::mergeCampaign(dir.string(), summary, &stats);
        if (!error.empty())
            throw std::runtime_error("merge failed: " + error);
        out.mergeS.push_back(secondsSince(start));
        const std::size_t rows = stats.rows - stats.skippedRows;
        out.attemptedRows += rows;
        if (summary != directSummary) {
            ++out.mismatches;
            out.failedRows += rows;
        } else {
            out.failedRows += stats.failedRows;
        }
        return stats;
    };

    const fs::path cold = root / "cold";
    auto start = Clock::now();
    planOrThrow(grid, kColdShards, cold);
    out.planS = secondsSince(start);

    std::vector<lf::ShardRunStats> stats(kColdShards);
    std::vector<std::vector<double>> rowMs(kColdShards);
    std::vector<std::exception_ptr> errors(kColdShards);
    std::size_t killedExecuted = 0;
    start = Clock::now();
    {
        std::vector<std::thread> threads;
        for (int shard = 0; shard < kColdShards; ++shard) {
            threads.emplace_back([&, shard] {
                try {
                    if (shard == 0) {
                        killedExecuted = runShard(cold, 0, cache,
                                                  kKillAfterRows,
                                                  &rowMs[0])
                                             .executed;
                    }
                    stats[shard] =
                        runShard(cold, shard, cache, 0, &rowMs[shard]);
                } catch (...) {
                    errors[shard] = std::current_exception();
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    out.coldS = secondsSince(start);
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    out.executed = killedExecuted;
    for (int shard = 0; shard < kColdShards; ++shard) {
        out.executed += stats[shard].executed;
        out.rowMs.insert(out.rowMs.end(), rowMs[shard].begin(),
                         rowMs[shard].end());
    }
    out.resumed = stats[0].resumedRows;
    const lf::MergeStats coldMerge = merge(cold);
    out.coldMergeS = out.mergeS.back();
    out.okRows = coldMerge.rows - coldMerge.failedRows -
        coldMerge.skippedRows;

    for (int rep = 0; rep < kWarmReps; ++rep) {
        const fs::path warm = root / ("warm-" + std::to_string(rep));
        planOrThrow(grid, kWarmShards, warm);
        start = Clock::now();
        for (int shard = 0; shard < kWarmShards; ++shard) {
            const lf::ShardRunStats warmStats =
                runShard(warm, shard, cache, 0, nullptr);
            out.warmRows += warmStats.totalRows;
            out.warmHits += warmStats.cacheHits;
            out.warmExecuted += warmStats.executed;
        }
        out.warmS.push_back(secondsSince(start));
        merge(warm);
    }
    fs::remove_all(root);
    return out;
}

/** Rows served per second by the warm re-plans. */
double
warmRowsPerSecond(const CampaignPass &pass)
{
    double seconds = 0.0;
    for (const double s : pass.warmS)
        seconds += s;
    return ratio(static_cast<double>(pass.warmRows), seconds);
}

// ---- Per-layer metrics ----

/** What the traced run hands to the per-layer report. */
struct LayerInputs
{
    /** One-worker pass with counters (and trace) on: the simulated
     *  counts, which repeat exactly. */
    const Pass *counted = nullptr;
    /** Traced pass in the workload's own worker configuration. */
    const Pass *traced = nullptr;
    /** Traced campaign pass; null when the workload has none. */
    const CampaignPass *campaign = nullptr;
    double countersOverhead = 0.0;
    double traceOverhead = 0.0;
};

void
addLayerMetrics(Outcome &out, const LayerInputs &in)
{
    const Pass &t = *in.traced;
    const TraceBreakdown &tr = t.trace;
    const double trialUs = tr.totalTrialUs();
    const double trials = static_cast<double>(tr.trials);

    // run: the ExperimentRunner and the sink it feeds.
    addMetric(out, "run.resolve_us", ratio(tr.resolveUs, trials), "us");
    double sinkUs = 0.0;
    for (const double us : tr.sinkRowUs)
        sinkUs += us;
    addMetric(out, "run.sink_row_us",
              ratio(sinkUs, static_cast<double>(tr.sinkRowUs.size())),
              "us");
    addMetric(out, "run.worker_busy_frac",
              ratio(trialUs, t.workers * t.wallS * 1e6), "ratio");
    addMetric(out, "run.consumer_parks",
              static_cast<double>(t.stream.consumerParks), "count");
    addMetric(out, "run.worker_parks",
              static_cast<double>(t.stream.workerParks), "count");
    addMetric(out, "run.window_occupancy_p90",
              quantile(tr.occupancy, 0.9), "count");

    // core: the channel phases inside a trial.
    const double attributed = tr.resolveUs + tr.prepareUs + tr.restoreUs +
        tr.totalCalibrateUs() + tr.totalTransmitUs();
    addMetric(out, "core.trial_ms", trialUs / 1e3, "ms");
    addMetric(out, "core.calibrate_share",
              ratio(tr.totalCalibrateUs(), trialUs), "ratio");
    addMetric(out, "core.transmit_share",
              ratio(tr.totalTransmitUs(), trialUs), "ratio");
    addMetric(out, "core.unattributed_share",
              ratio(trialUs - attributed, trialUs), "ratio");
    for (std::size_t f = 0; f < kFamilies; ++f) {
        const std::string fam = familyNames()[f];
        addMetric(out, "core.calibrate_ms." + fam,
                  tr.calibrateUs[f] / 1e3, "ms");
        addMetric(out, "core.transmit_ms." + fam, tr.transmitUs[f] / 1e3,
                  "ms");
    }

    // sim: simulated work against host time, per family.
    const Pass &c = *in.counted;
    for (std::size_t f = 0; f < kFamilies; ++f) {
        const std::string fam = familyNames()[f];
        const CounterTotals &timed = t.family[f];
        addMetric(out, "sim.mcycles_per_s." + fam,
                  ratio(static_cast<double>(timed.cycles), tr.trialUs[f]),
                  "Mcycle/s");
        addMetric(out, "sim.ns_per_uop." + fam,
                  ratio(tr.trialUs[f] * 1e3,
                        static_cast<double>(timed.retiredUops)),
                  "ns");
        addMetric(out, "sim.ff_frac." + fam,
                  ratio(c.family[f].fastForwarded, c.family[f].cycles),
                  "ratio");
    }
    addMetric(out, "sim.snapshot_hits",
              static_cast<double>(c.all.snapshotHits), "count");
    addMetric(out, "sim.snapshot_misses",
              static_cast<double>(c.all.snapshotMisses), "count");
    addMetric(out, "sim.snapshot_bypasses",
              static_cast<double>(c.all.snapshotBypasses), "count");

    // frontend and backend: simulated, so they repeat exactly.
    const CounterTotals &a = c.all;
    const std::uint64_t uops = a.uopsMite + a.uopsDsb + a.uopsLsd;
    addMetric(out, "frontend.uops_dsb_frac", ratio(a.uopsDsb, uops),
              "ratio");
    addMetric(out, "frontend.uops_mite_frac", ratio(a.uopsMite, uops),
              "ratio");
    addMetric(out, "frontend.uops_lsd_frac", ratio(a.uopsLsd, uops),
              "ratio");
    addMetric(out, "frontend.dsb_hit_rate",
              ratio(a.dsbHits, a.dsbHits + a.dsbMisses), "ratio");
    addMetric(out, "frontend.path_switches",
              static_cast<double>(a.pathSwitches), "count");
    addMetric(out, "frontend.prepared_hit_rate",
              ratio(a.preparedHits, a.preparedHits + a.preparedMisses),
              "ratio");
    addMetric(out, "backend.ipc", ratio(a.retiredInsts, a.cycles),
              "ratio");
    addMetric(out, "backend.retire_slot_util",
              ratio(a.retireSlotsUsed, a.retireSlotCapacity), "ratio");

    // campaign: 0 where the workload does not exercise the layer.
    const CampaignPass empty;
    const CampaignPass &cp = in.campaign ? *in.campaign : empty;
    addMetric(out, "campaign.plan_ms", cp.planS * 1e3, "ms");
    addMetric(out, "campaign.cold_row_us",
              ratio(cp.coldS * 1e6, static_cast<double>(cp.executed)),
              "us");
    addMetric(out, "campaign.warm_row_us",
              ratio(1e6, warmRowsPerSecond(cp)), "us");
    addMetric(out, "campaign.cache_hit_rate",
              ratio(cp.warmHits, cp.warmHits + cp.warmExecuted),
              "ratio");
    addMetric(out, "campaign.resumed_rows",
              static_cast<double>(cp.resumed), "count");
    addMetric(out, "campaign.warm_rows_per_s", warmRowsPerSecond(cp),
              "1/s");
    addMetric(out, "campaign.merge_s", median(cp.mergeS), "s");

    // obs: what the traced run itself cost.
    addMetric(out, "obs.trace_overhead_frac", in.traceOverhead, "ratio");
    addMetric(out, "obs.counters_overhead_frac", in.countersOverhead,
              "ratio");

    out.notes.push_back(fmt(
        "traced pass: %zu trials at %d worker(s), %.6g s; calibrate "
        "%.1f%%, transmit %.1f%% of trial time; %zu trace events "
        "dropped", tr.trials, t.workers, t.wallS,
        100.0 * ratio(tr.totalCalibrateUs(), trialUs),
        100.0 * ratio(tr.totalTransmitUs(), trialUs), tr.droppedEvents));
    const double powerSgxTx = tr.transmitUs[familyOf("power-eviction")] +
        tr.transmitUs[familyOf("sgx-nonmt-fast-eviction")] +
        tr.transmitUs[familyOf("sgx-mt-eviction")];
    out.notes.push_back(fmt(
        "power + SGX transmit: %.1f%% of trial time",
        100.0 * ratio(powerSgxTx, trialUs)));
}

/** Walls of the interleaved plain / counters / traced passes. */
struct OverheadWalls
{
    std::vector<double> plain;
    std::vector<double> counters;
    std::vector<double> traced;

    double countersOverhead() const
    {
        return ratio(median(counters), median(plain)) - 1.0;
    }
    double traceOverhead() const
    {
        return ratio(median(traced), median(counters)) - 1.0;
    }

    std::string describe() const
    {
        return fmt("overhead passes (median wall of %zu each): plain "
                   "%.6g s, counters %.6g s, traced %.6g s", plain.size(),
                   median(plain), median(counters), median(traced));
    }
};

// ---- The workloads ----

/**
 * paper-registry and short-sweep: a grid through the runner. With
 * @p campaign (short-sweep), the grid also runs once through the
 * campaign layer (runCampaignPass), before and apart from the timed
 * passes: its merges are checked against the reference pass, and a
 * traced run takes the campaign.* metrics from it.
 */
Outcome
runnerWorkload(const Options &options, const SweepSpec &grid,
               int workers, bool campaign)
{
    Outcome out;
    SetupTimer setup(options);
    const std::vector<ExperimentSpec> specs = expandChecked(grid);
    RowChecker checker(expectedFor(options));

    // A multi-worker workload first runs at one worker: the reference
    // its rows must match byte for byte, the warm-up of the process
    // (see the README on the first-run effect) and the summary every
    // campaign merge must reproduce.
    Pass reference;
    bool haveReference = false;
    lf::SweepSummarySink summarySink;
    std::ostringstream summary;
    if (workers > 1 || campaign) {
        summarySink.writeHeader(summary);
        reference = runPass(specs, {1, options.trace, options.trace},
                            &summarySink, &summary);
        summarySink.writeFooter(summary);
        checker.check(reference);
        haveReference = true;
        out.notes.push_back(fmt("reference pass: 1 worker, %.6g s, "
                                "%.6g trials/s", reference.wallS,
                                trialsPerSecond(reference)));
    }

    CampaignPass campaignPass;
    if (campaign) {
        const lf::obs::CounterScope counters(options.trace);
        if (options.trace) {
            lf::obs::clearTrace();
            lf::obs::setTraceEnabled(true);
        }
        campaignPass = runCampaignPass(
            grid, fs::path(options.workDir) / "campaign", summary.str());
        if (options.trace) {
            lf::obs::setTraceEnabled(false);
            lf::obs::clearTrace();
        }
        const CampaignPass &cp = campaignPass;
        out.notes.push_back(fmt(
            "campaign: %d cold shards at once, 1 worker each, shard 0 "
            "killed after %zu rows and resumed (%zu rows resumed); %d "
            "warm re-plans at %d shards: warm_rows_per_s %.6g 1/s, "
            "merge_s %.6g s (median of %zu merges), %zu merges differ "
            "from the reference pass's summary",
            kColdShards, kKillAfterRows, cp.resumed, kWarmReps,
            kWarmShards, warmRowsPerSecond(cp), median(cp.mergeS),
            cp.mergeS.size(), cp.mismatches));
    }

    const auto start = Clock::now();
    std::vector<double> passSeconds;
    const auto timeLeft = [&]() {
        return passSeconds.empty() ||
            secondsSince(start) + median(passSeconds) <= options.seconds;
    };

    if (!options.trace) {
        std::vector<double> rates;
        std::vector<std::vector<double>> latencies;
        while (timeLeft()) {
            Pass pass = runPass(specs, {workers});
            setup.sample();
            checker.check(pass);
            passSeconds.push_back(pass.wallS);
            rates.push_back(trialsPerSecond(pass));
            latencies.push_back(std::move(pass.latencyMs));
            if (!haveReference) {
                reference = std::move(pass);
                haveReference = true;
            }
        }
        std::size_t cells = 0;
        addMetric(out, "setup_s", setup.medianS(), "s");
        addLatencyMetrics(out, rates, latencies, "trials");
        addMetric(out, "peak_rss_mb", peakRssMb(), "MB");
        addMetric(out, "paper_rate_log_err",
                  paperRateLogError(reference, &cells), "ratio");
        out.notes.push_back(fmt(
            "timed: %zu passes of %zu rows at %d worker(s); first pass "
            "%.3gx the median pass", passSeconds.size(), specs.size(),
            workers, ratio(passSeconds.front(), median(passSeconds))));
        out.notes.push_back(fmt("paper_rate_log_err over %zu Table "
                                "III/VI cells", cells));
    } else {
        // Interleave plain, counters-only and traced passes; the first
        // traced pass gives the layer breakdown.
        OverheadWalls walls;
        Pass traced;
        bool haveTraced = false;
        while (timeLeft()) {
            const auto group = Clock::now();
            Pass plain = runPass(specs, {workers});
            Pass counted = runPass(specs, {workers, true});
            Pass pass = runPass(specs, {workers, true, true});
            for (const Pass *p : {&plain, &counted, &pass})
                checker.check(*p);
            walls.plain.push_back(plain.wallS);
            walls.counters.push_back(counted.wallS);
            walls.traced.push_back(pass.wallS);
            passSeconds.push_back(secondsSince(group));
            if (!haveTraced) {
                traced = std::move(pass);
                haveTraced = true;
            }
        }
        if (!haveReference)
            reference = traced; // one worker: the traced pass counts too
        LayerInputs in;
        in.counted = &reference;
        in.traced = &traced;
        in.campaign = campaign ? &campaignPass : nullptr;
        in.countersOverhead = walls.countersOverhead();
        in.traceOverhead = walls.traceOverhead();
        addLayerMetrics(out, in);
        out.notes.push_back(walls.describe());
    }

    writeFingerprints(options.fingerprintsOut, options, specs,
                      reference.hashes);
    noteFingerprints(out, options, checker, reference.hashes);
    // A merge is a fold over all its rows: it fails every row it
    // covers when it differs from the reference summary, or when a row
    // it reproduces failed its own check.
    const std::size_t mergeRows = campaignPass.attemptedRows;
    out.attempted = checker.attempted + mergeRows;
    out.failed = checker.failed +
        (checker.failed > 0 ? mergeRows : campaignPass.failedRows);
    addFailedNote(out);
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"paper-registry",
                                                   "short-sweep"};
    return names;
}

Outcome
runWorkload(const Options &options)
{
    const bool shortSweep = options.workload == "short-sweep";
    return runnerWorkload(options, workloadGrid(options),
                          shortSweep ? parallelWorkers() : 1, shortSweep);
}

void
runSetupOnly(const Options &options)
{
    expandChecked(workloadGrid(options));
}

} // namespace perfbench
