/**
 * @file
 * Steady-state round skipping: cycle-exact period detection for loops
 * of identical rounds or MT encode steps.
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
 * The MT step loops (DsbChannel::runMtSteps) leave the Core RNG out of
 * the state. That is sound only because every Core RNG draw between
 * two of their boundaries is a read-side noise draw
 * (Core::noisyMeasurement on a receiver sample): it steers no machine
 * state, and the caller replays it, in the original order, on the
 * recorded true cycles of the skipped steps.
 *
 * The rules are fixed, not tuned per channel:
 *  - Cheap filter: a snapshot is only taken once the last round's
 *    totals delta equals the one before it.
 *  - After a snapshot, the state is compared at the next 1..6
 *    boundaries (non-MT eviction rounds repeat with period 2, because
 *    the backend's round-robin parity flips each round; MT steps
 *    repeat with period 6, that parity times the 3-step rotation of
 *    the DSB recency order).
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
    /** Longest period the detector looks for. */
    static constexpr int kMaxPeriod = 6;

    /**
     * Watch a loop of @p rounds rounds on @p core. With
     * @p include_rng false the Core RNG is left out of the state; the
     * caller must then replay every Core RNG draw of the skipped
     * rounds itself (see the file comment).
     */
    SteadyStateSkipper(Core &core, int rounds, bool include_rng = true);

    /**
     * Call at round @p round's boundary: a point from which the
     * round is a deterministic function of the Core's state (right
     * after the bind that starts the repeating part, or the top of an
     * MT step). Returns the round to continue at:
     * @p round itself, or a later round whose boundary state equals
     * this one after whole periods were skipped.
     */
    int atBoundary(int round);

    /** Period, in rounds, of the skip atBoundary() made; 0 before. */
    int period() const { return period_; }

  private:
    static constexpr int kBackoffRounds = 8;

    Core &core_;
    int rounds_;
    bool includeRng_;
    bool active_;
    int period_ = 0;
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
