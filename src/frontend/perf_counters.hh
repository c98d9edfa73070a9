/**
 * @file
 * Per-thread performance counters.
 *
 * These mirror the hardware events the paper reads (IDQ.MITE_UOPS,
 * IDQ.DSB_UOPS, LSD.UOPS, ILD_STALL.LCP, DSB2MITE_SWITCHES.
 * PENALTY_CYCLES, ...) and are also the ground truth the power model
 * integrates over.
 */

#ifndef LF_FRONTEND_PERF_COUNTERS_HH
#define LF_FRONTEND_PERF_COUNTERS_HH

#include <cstdint>
#include <iterator>

namespace lf {

struct PerfCounters
{
    /** @name Micro-op delivery attribution */
    /// @{
    std::uint64_t uopsMite = 0;
    std::uint64_t uopsDsb = 0;
    std::uint64_t uopsLsd = 0;
    /// @}

    /** @name Frontend events */
    /// @{
    std::uint64_t lcpStallCycles = 0;
    std::uint64_t switchPenaltyCycles = 0;
    std::uint64_t dsbToMiteSwitches = 0;
    std::uint64_t miteToDsbSwitches = 0;
    std::uint64_t lsdEngagements = 0;
    std::uint64_t lsdFlushes = 0;
    std::uint64_t blocksDelivered = 0;
    /// @}

    /** @name Stall attribution (cycles charged per cause) */
    /// @{
    std::uint64_t mispredictStallCycles = 0;
    std::uint64_t btbMissStallCycles = 0;
    std::uint64_t l1iMissStallCycles = 0;
    /// @}

    /** @name IDQ traffic
     * One "push" is a bulk delivery (a DSB line, MITE chunk, or LSD
     * replay burst); occupancyAtPush accumulates the queue depth right
     * after each push, so occupancyAtPush / idqPushes is the mean
     * delivery-time backlog. */
    /// @{
    std::uint64_t idqPushes = 0;
    std::uint64_t idqPushedUops = 0;
    std::uint64_t idqPops = 0;
    std::uint64_t idqOccupancyAtPush = 0;
    /// @}

    /** @name Cache / prediction events */
    /// @{
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t condMispredicts = 0;
    /// @}

    /** @name Retirement */
    /// @{
    std::uint64_t retiredInsts = 0;
    std::uint64_t retiredUops = 0;
    /// @}

    /** @name Speculative (transient) frontend activity */
    /// @{
    std::uint64_t specChunks = 0;
    /// @}

    std::uint64_t totalUops() const
    {
        return uopsMite + uopsDsb + uopsLsd;
    }

    /** Element-wise difference (this - earlier). */
    PerfCounters delta(const PerfCounters &earlier) const;
};

/** Every PerfCounters field, for element-wise arithmetic. */
inline constexpr std::uint64_t PerfCounters::*kPerfCounterFields[] = {
    &PerfCounters::uopsMite,
    &PerfCounters::uopsDsb,
    &PerfCounters::uopsLsd,
    &PerfCounters::lcpStallCycles,
    &PerfCounters::switchPenaltyCycles,
    &PerfCounters::dsbToMiteSwitches,
    &PerfCounters::miteToDsbSwitches,
    &PerfCounters::lsdEngagements,
    &PerfCounters::lsdFlushes,
    &PerfCounters::blocksDelivered,
    &PerfCounters::mispredictStallCycles,
    &PerfCounters::btbMissStallCycles,
    &PerfCounters::l1iMissStallCycles,
    &PerfCounters::idqPushes,
    &PerfCounters::idqPushedUops,
    &PerfCounters::idqPops,
    &PerfCounters::idqOccupancyAtPush,
    &PerfCounters::l1iAccesses,
    &PerfCounters::l1iMisses,
    &PerfCounters::btbMisses,
    &PerfCounters::condMispredicts,
    &PerfCounters::retiredInsts,
    &PerfCounters::retiredUops,
    &PerfCounters::specChunks,
};
static_assert(sizeof(PerfCounters) ==
                  std::size(kPerfCounterFields) * sizeof(std::uint64_t),
              "kPerfCounterFields must list every PerfCounters field");

inline PerfCounters
PerfCounters::delta(const PerfCounters &earlier) const
{
    PerfCounters d;
    for (std::uint64_t PerfCounters::*field : kPerfCounterFields)
        d.*field = this->*field - earlier.*field;
    return d;
}

} // namespace lf

#endif // LF_FRONTEND_PERF_COUNTERS_HH
