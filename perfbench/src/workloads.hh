/**
 * @file
 * The benchmark's two paper workloads and the numbers they report.
 *
 *   paper-registry   every registered channel x every Table-I model,
 *                    paper defaults, one worker: the simulator core;
 *   short-sweep      Table-III non-MT channels + slow-switch, 16-bit
 *                    messages, many trials per cell, streamed through
 *                    JsonSink by several workers: per-trial fixed cost;
 *                    once per run, the same grid through the campaign
 *                    layer: plan, cold run with a killed and resumed
 *                    shard, warm re-plans served from the cache, merges.
 *
 * A workload run either measures the end-to-end metrics (tracing and
 * counters off) or, with trace on, the per-layer metrics of a
 * separate traced run.
 */

#ifndef LF_PERFBENCH_WORKLOADS_HH
#define LF_PERFBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Fingerprint file to check rows against; empty: none. */
    std::string expectPath;
    /** Where to write this run's row fingerprints; empty: nowhere. */
    std::string fingerprintsOut;
    /** Scratch directory for campaign files (removed afterwards). */
    std::string workDir;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    /** Rows whose bytes were checked (skipped rows are not). */
    std::size_t attempted = 0;
    /** Error rows, malformed rows and fingerprint or identity
     *  mismatches among them. */
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable report lines. */
    std::vector<std::string> notes;
};

const std::vector<std::string> &workloadNames();

/** Run one workload; throws std::runtime_error on a setup failure. */
Outcome runWorkload(const Options &options);

/** Only the workload's set-up (what a run does before its first
 *  trial); lf_perfbench runs it in child processes to time set-up. */
void runSetupOnly(const Options &options);

} // namespace perfbench

#endif // LF_PERFBENCH_WORKLOADS_HH
