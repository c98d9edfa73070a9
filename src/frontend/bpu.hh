/**
 * @file
 * Branch prediction unit: a BTB for taken-branch targets plus 2-bit
 * saturating counters for conditional direction. Kept deliberately
 * simple — the paper's loop workloads are perfectly predictable after
 * warmup, and the Spectre experiments only need a trainable
 * conditional predictor.
 */

#ifndef LF_FRONTEND_BPU_HH
#define LF_FRONTEND_BPU_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace lf {

class Bpu
{
  public:
    /** @name BTB */
    /// @{
    bool btbHas(Addr branch_addr) const;
    void btbInsert(Addr branch_addr, Addr target);
    /// @}

    /** @name Conditional direction prediction (2-bit counters) */
    /// @{
    /** Predicted direction; unknown branches predict not-taken. */
    bool predictCond(Addr branch_addr) const;
    /** Train with the resolved direction. */
    void updateCond(Addr branch_addr, bool taken);
    /// @}

    /** Forget everything (e.g. between experiments). */
    void reset();

    std::uint64_t btbMisses() const { return btbMisses_; }
    std::uint64_t condMispredicts() const { return condMispredicts_; }

    /** Record outcome counters (maintained by the frontend engine). */
    void noteBtbMiss() { ++btbMisses_; }
    void noteCondMispredict() { ++condMispredicts_; }

    /** @name Steady-state round skipping (sim/steady_state.hh) */
    /// @{
    /** Append the BTB and the 2-bit counters, each sorted by branch
     *  address (hash-map order is not state). */
    void appendState(std::vector<std::uint64_t> &out) const;

    /** Visit every statistic (a monotone total), in a fixed order. */
    template <typename Fn>
    void forEachTotal(Fn &&fn)
    {
        fn(btbMisses_);
        fn(condMispredicts_);
    }
    /// @}

  private:
    std::unordered_map<Addr, Addr> btb_;
    std::unordered_map<Addr, std::uint8_t> counters_;
    std::uint64_t btbMisses_ = 0;
    std::uint64_t condMispredicts_ = 0;
};

} // namespace lf

#endif // LF_FRONTEND_BPU_HH
