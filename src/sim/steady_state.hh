/**
 * @file
 * Steady-state round skipping: cycle-exact period detection for loops
 * of identical rounds.
 *
 * The non-MT protocols (power, SGX non-MT, the timing channels) repeat
 * one Encode/Decode round hundreds to thousands of times per bit. Each
 * round ends by binding the receiver chain, which resets thread 0's
 * pipeline state; from that bind to the next, the simulation is a
 * deterministic function of the Core's canonical state
 * (Core::appendSteadyState()). Once the state at one round boundary
 * equals the state p boundaries earlier, every later stretch of p
 * rounds replays the same machine transitions and grows every total by
 * the same amount. The skipper then adds that amount once per whole
 * period that fits before the last round, and the loop resumes there:
 * results and every simulation counter are byte-identical to running
 * all rounds.
 *
 * The rules are fixed, not tuned per channel:
 *  - Cheap filter: a snapshot is only taken once the last round's
 *    totals delta equals the one before it.
 *  - After a snapshot, the state is compared at the next 1..4
 *    boundaries (eviction chains repeat with period 2, because the
 *    backend's round-robin parity flips each round).
 *  - On a match, skip n = (rounds-1-round)/p periods, so the last
 *    round always runs for real. On a miss, back off 8 rounds.
 *
 * Skipping is refused when the fast paths are off (the reference mode)
 * or a domain-switch hook is installed (Core::steadySkipAllowed()).
 */

#ifndef LF_SIM_STEADY_STATE_HH
#define LF_SIM_STEADY_STATE_HH

#include <cstdint>
#include <vector>

namespace lf {

class Core;

class SteadyStateSkipper
{
  public:
    /** Watch a loop of @p rounds rounds on @p core. */
    SteadyStateSkipper(Core &core, int rounds);

    /**
     * Call at round @p round's boundary, right after the bind that
     * starts the repeating part. Returns the round to continue at:
     * @p round itself, or a later round whose boundary state equals
     * this one after whole periods were skipped.
     */
    int atBoundary(int round);

  private:
    static constexpr int kMaxPeriod = 4;
    static constexpr int kBackoffRounds = 8;

    Core &core_;
    int rounds_;
    bool active_;
    int resumeRound_ = 0;  //!< No snapshot before this round (backoff).
    int snapRound_ = -1;   //!< Round of the held snapshot, or -1.
    std::vector<std::uint64_t> totals_;
    std::vector<std::uint64_t> lastTotals_;
    std::vector<std::uint64_t> delta_;
    std::vector<std::uint64_t> lastDelta_;
    std::vector<std::uint64_t> snapTotals_;
    std::vector<std::uint64_t> snapState_;
    std::vector<std::uint64_t> state_;
};

} // namespace lf

#endif // LF_SIM_STEADY_STATE_HH
