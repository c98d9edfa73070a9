/**
 * @file
 * Shared helpers of the paper-workload benchmark: statistics over
 * timing samples, row fingerprints, process measurements, the channel
 * families the per-layer metrics are keyed by, and a reader for the
 * Chrome trace the simulator's obs layer renders.
 */

#ifndef LF_PERFBENCH_COMMON_HH
#define LF_PERFBENCH_COMMON_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/counters.hh"
#include "run/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** @name Sample statistics (the input is taken by value and sorted) */
/// @{
double median(std::vector<double> values);

/** Nearest-rank quantile, @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);

/** Harrell-Davis estimate of the @p q quantile, @p q in (0, 1): a mean
 *  of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
 *  density. Unlike one order statistic, it does not jump when a few
 *  samples near the quantile change; 0 for no samples. */
double hdQuantile(std::vector<double> values, double q);

/** The highest percentile of a fixed ladder (99.9 ... 50) that still
 *  has at least ten samples beyond it, with its Harrell-Davis value. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> values);
/// @}

/** 64-bit FNV-1a: the row fingerprint. */
std::uint64_t fnv1a64(const std::string &bytes,
                      std::uint64_t hash = 0xcbf29ce484222325ull);
std::string hex64(std::uint64_t value);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** CPUs this process may run on (affinity mask, not the host). */
int usableCpus();

/** Median milliseconds of a fixed integer loop: a host-speed probe
 *  printed beside the results, so that a slow or contended host can be
 *  told apart from a slow build. */
double hostProbeMs();

/** @name Channel families
 *  The per-layer core/sim metrics are keyed by family, because the
 *  families differ by orders of magnitude in simulated work per bit. */
/// @{
constexpr std::size_t kFamilies = 6;
const std::array<const char *, kFamilies> &familyNames();
/** Family index of a registry channel name. */
std::size_t familyOf(const std::string &channel);
/// @}

/** The counters the per-layer metrics read, summed over trials. */
struct CounterTotals
{
    std::uint64_t trials = 0;
    std::uint64_t cycles = 0;
    std::uint64_t fastForwarded = 0;
    std::uint64_t retiredInsts = 0;
    std::uint64_t retiredUops = 0;
    std::uint64_t uopsMite = 0;
    std::uint64_t uopsDsb = 0;
    std::uint64_t uopsLsd = 0;
    std::uint64_t dsbHits = 0;
    std::uint64_t dsbMisses = 0;
    std::uint64_t pathSwitches = 0;
    std::uint64_t preparedHits = 0;
    std::uint64_t preparedMisses = 0;
    /** Retire slots offered: ticked backend cycles x issue width. */
    std::uint64_t retireSlotCapacity = 0;
    std::uint64_t retireSlotsUsed = 0;
    std::uint64_t snapshotHits = 0;
    std::uint64_t snapshotMisses = 0;
    std::uint64_t snapshotBypasses = 0;

    /** Add one trial's snapshot, taken on a core of @p issueWidth. */
    void add(const lf::obs::CounterSet &set, int issueWidth);
};

/** Where trial time went, from one traced pass. Times in microseconds,
 *  per family; a phase span is attributed to the trial span that
 *  follows it on the same thread (the runner records a trial's span
 *  when the trial ends, after its phases). */
struct TraceBreakdown
{
    std::array<double, kFamilies> trialUs{};
    std::array<double, kFamilies> calibrateUs{};
    std::array<double, kFamilies> transmitUs{};
    double resolveUs = 0.0;
    double prepareUs = 0.0;
    double restoreUs = 0.0;
    std::size_t trials = 0;
    /** Reorder-window occupancy sampled at each delivery. */
    std::vector<double> occupancy;
    /** Durations of the benchmark's own "bench_sink_row" spans. */
    std::vector<double> sinkRowUs;
    std::size_t droppedEvents = 0;

    double totalTrialUs() const;
    double totalCalibrateUs() const;
    double totalTransmitUs() const;
};

/** Read obs::renderTraceJson() output; @p specs maps the trial spans'
 *  spec index to a channel. */
TraceBreakdown analyzeTrace(const std::string &traceJson,
                            const std::vector<lf::ExperimentSpec> &specs);

} // namespace perfbench

#endif // LF_PERFBENCH_COMMON_HH
