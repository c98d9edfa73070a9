/**
 * @file
 * CounterSet: the PMU-style named-counter surface of the simulator.
 *
 * The underlying increments (PerfCounters in the frontend threads, Dsb
 * statistics, Backend retire slots, the prepared-chain cache) are
 * always on and always cheap — plain integer adds on state the hot
 * path already owns. What this layer adds is *collection*: a single
 * named snapshot per trial, taken only when counter collection is
 * enabled, so the default run pays nothing beyond the increments
 * themselves (the throughput bench gates that overhead at <= 2% of
 * the PR-7 baseline).
 *
 * Collection is provably inert: it only reads, so every trial output
 * is bit-identical with counters enabled or disabled — the streaming
 * tests enforce that registry-wide. The catalog below is the single
 * source of truth for counter names; `lf_run --list-counters` renders
 * it and scripts/check_docs.sh fails on any name missing from
 * docs/OBSERVABILITY.md.
 */

#ifndef LF_OBS_COUNTERS_HH
#define LF_OBS_COUNTERS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace lf {

class Core;

namespace obs {

/** One per-core counter snapshot, all counters zero-initialised.
 *  Per-thread PerfCounters are summed across both hardware threads;
 *  Dsb/Backend/engine-wide values are per core. */
struct CounterSet
{
    /** @name Micro-op delivery */
    /// @{
    std::uint64_t uopsMite = 0;
    std::uint64_t uopsDsb = 0;
    std::uint64_t uopsLsd = 0;
    std::uint64_t blocksDelivered = 0;
    /// @}

    /** @name DSB (micro-op cache) */
    /// @{
    std::uint64_t dsbHits = 0;
    std::uint64_t dsbMisses = 0;
    std::uint64_t dsbEvictions = 0;
    std::uint64_t dsbInserts = 0;
    std::uint64_t dsbPartitionTransitions = 0;
    std::uint64_t dsbToMiteSwitches = 0;
    std::uint64_t miteToDsbSwitches = 0;
    /// @}

    /** @name LSD */
    /// @{
    std::uint64_t lsdCaptures = 0;
    std::uint64_t lsdFlushes = 0;
    /// @}

    /** @name Stall cycles by reason */
    /// @{
    std::uint64_t lcpStallCycles = 0;
    std::uint64_t switchPenaltyCycles = 0;
    std::uint64_t mispredictStallCycles = 0;
    std::uint64_t btbMissStallCycles = 0;
    std::uint64_t l1iMissStallCycles = 0;
    /// @}

    /** @name Caches and prediction */
    /// @{
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t condMispredicts = 0;
    /// @}

    /** @name IDQ traffic */
    /// @{
    std::uint64_t idqPushes = 0;
    std::uint64_t idqPushedUops = 0;
    std::uint64_t idqPops = 0;
    std::uint64_t idqOccupancyAtPush = 0;
    /// @}

    /** @name Retirement and time */
    /// @{
    std::uint64_t retiredInsts = 0;
    std::uint64_t retiredUops = 0;
    std::uint64_t retireSlotCycles = 0;
    std::uint64_t retireSlotsUsed = 0;
    std::uint64_t specChunks = 0;
    std::uint64_t cycles = 0;
    std::uint64_t fastForwardedCycles = 0;
    /// @}

    /** @name Prepared-chain cache (filled by runExperiment) */
    /// @{
    std::uint64_t preparedCacheHits = 0;
    std::uint64_t preparedCacheMisses = 0;
    /// @}

    /** @name Always 0 and not in the catalog; kept only because
     *  perfbench/ still reads them, until the next benchmark change. */
    /// @{
    std::uint64_t snapshotHits = 0;
    std::uint64_t snapshotMisses = 0;
    std::uint64_t snapshotBypasses = 0;
    /// @}
};

/** Catalog entry: the exported snake_case name, a one-line
 *  description, and the CounterSet field it reads. */
struct CounterInfo
{
    const char *name;
    const char *description;
    std::uint64_t CounterSet::*field;
};

/** Every counter, in export order. Names are unique snake_case. */
const std::vector<CounterInfo> &counterCatalog();

/** @name Collection switch
 * Process-global, read once per trial; flip only between runs. Off
 * (the default), trials carry no snapshot and collection costs
 * nothing. On or off, trial *results* are bit-identical. */
/// @{
void setCountersEnabled(bool on);
bool countersEnabled();

class CounterScope
{
  public:
    explicit CounterScope(bool on) : previous_(countersEnabled())
    {
        setCountersEnabled(on);
    }
    ~CounterScope() { setCountersEnabled(previous_); }
    CounterScope(const CounterScope &) = delete;
    CounterScope &operator=(const CounterScope &) = delete;

  private:
    bool previous_;
};
/// @}

/**
 * Snapshot @p core's counters since its last reset (i.e. since the
 * trial bound it). Read-only. The prepared-cache fields are not the
 * core's to know and stay zero; runExperiment() fills them from the
 * calling thread's prepared-cache delta.
 */
CounterSet collectCoreCounters(const Core &core);

/** Render @p set as a one-line-per-counter JSON object, catalog
 *  order: {"uops_mite":N,...}. */
std::string renderCounterSetJson(const CounterSet &set);

} // namespace obs
} // namespace lf

#endif // LF_OBS_COUNTERS_HH
