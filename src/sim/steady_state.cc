#include "sim/steady_state.hh"

#include "sim/core.hh"

namespace lf {

SteadyStateSkipper::SteadyStateSkipper(Core &core, int rounds,
                                       bool include_rng)
    : core_(core), rounds_(rounds), includeRng_(include_rng),
      active_(core.steadySkipAllowed())
{
}

int
SteadyStateSkipper::atBoundary(int round)
{
    if (!active_)
        return round;
    totals_.clear();
    core_.appendTotals(totals_);

    // Cheap filter: did the last round grow every total exactly as
    // the round before it did?
    bool repeated = false;
    if (!lastTotals_.empty()) {
        delta_.resize(totals_.size());
        for (std::size_t i = 0; i < totals_.size(); ++i)
            delta_[i] = totals_[i] - lastTotals_[i];
        repeated = delta_ == lastDelta_;
        lastDelta_.swap(delta_);
    }
    lastTotals_ = totals_;

    if (snapRound_ < 0) {
        if (repeated && round >= resumeRound_) {
            snapRound_ = round;
            snapTotals_ = totals_;
            snapState_.clear();
            core_.appendSteadyState(snapState_, includeRng_);
        }
        return round;
    }

    state_.clear();
    core_.appendSteadyState(state_, includeRng_);
    const int period = round - snapRound_;
    if (state_ != snapState_) {
        if (period == kMaxPeriod) {
            snapRound_ = -1;
            resumeRound_ = round + kBackoffRounds;
        }
        return round;
    }

    // Every later stretch of `period` rounds replays the last one.
    // Fewer than `period` rounds remain after the skip, so the
    // detector retires.
    active_ = false;
    period_ = period;
    const int n = (rounds_ - 1 - round) / period;
    if (n > 0) {
        for (std::size_t i = 0; i < totals_.size(); ++i)
            totals_[i] -= snapTotals_[i];
        core_.skipPeriods(totals_, static_cast<std::uint64_t>(n));
    }
    return round + n * period;
}

} // namespace lf
