/**
 * @file
 * L1 instruction cache model: set-associative, LRU, shared between the
 * two hardware threads (as on Intel SMT cores).
 *
 * The paper's attacks are designed to leave *no* L1I footprint
 * (mix blocks aliasing in the DSB map to distinct L1I sets); this
 * model exists to verify that property and to measure the L1 miss
 * rates reported in Table VII.
 */

#ifndef LF_FRONTEND_L1I_CACHE_HH
#define LF_FRONTEND_L1I_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "frontend/params.hh"

namespace lf {

/** Outcome of one L1I access. */
struct L1iAccessResult
{
    bool hit = false;
    Cycles latency = 0;   //!< Extra cycles charged (0 on a hit).
};

class L1iCache
{
  public:
    explicit L1iCache(const FrontendParams &params);

    /** Access the line containing @p addr; fills on miss. */
    L1iAccessResult access(Addr addr);

    /** True if the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    /** Invalidate the line containing @p addr (clflush analogue). */
    void flushLine(Addr addr);

    /** Invalidate everything. */
    void flushAll();

    /** @name Statistics */
    /// @{
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t misses() const { return misses_; }
    /// @}

    /** @name Steady-state round skipping (sim/steady_state.hh) */
    /// @{
    /** Append each set's valid tags in recency order (way placement
     *  and LRU stamps are unobservable, as in Dsb::appendState). */
    void appendState(std::vector<std::uint64_t> &out) const;

    /** Visit every statistic (a monotone total), in a fixed order. */
    template <typename Fn>
    void forEachTotal(Fn &&fn)
    {
        fn(accesses_);
        fn(misses_);
    }
    /// @}

    int numSets() const { return numSets_; }
    int numWays() const { return numWays_; }
    int lineBytes() const { return lineBytes_; }

    /** Set index of @p addr. */
    int setOf(Addr addr) const;

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
    };

    Addr tagOf(Addr addr) const;
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;

    int numSets_;
    int numWays_;
    int lineBytes_;
    Cycles missLatency_;
    std::vector<Line> lines_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace lf

#endif // LF_FRONTEND_L1I_CACHE_HH
