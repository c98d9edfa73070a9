/**
 * @file
 * Content-addressed result cache: repeated campaigns are incremental.
 *
 * Every trial is a pure function of its fully-expanded spec, so its
 * result can be cached under trialKey(spec) — a content address that
 * covers the channel, CPU, overrides, message parameters, seed, and
 * trial index. Overlapping or re-planned campaigns (same cells,
 * different sharding; a grid grown by one axis value; a straight
 * re-run) then skip every trial they share with history.
 *
 * Layout: `<root>/<k[0:2]>/<key>.rec`, two-level to keep directories
 * small at million-entry scale. Entries are written atomically
 * (writeFileAtomic), so a kill never leaves a partial entry; on read,
 * an entry must parse exactly AND its stored spec must hash back to
 * the key it was filed under — a corrupt, truncated, or misfiled
 * entry is a diagnosed error (path + reason), never a silent wrong
 * result and never treated as a mere miss (per the file-hardening
 * contract; delete the named file to recover).
 */

#ifndef LF_CAMPAIGN_CACHE_HH
#define LF_CAMPAIGN_CACHE_HH

#include <string>

#include "run/experiment.hh"

namespace lf {

class ResultCache
{
  public:
    /** @param root Cache directory; empty disables the cache (every
     *  lookup misses, every store is a no-op). */
    explicit ResultCache(std::string root = "");

    bool enabled() const { return !root_.empty(); }
    const std::string &root() const { return root_; }

    /** Entry file path for @p spec (valid only when enabled). */
    std::string entryPath(const ExperimentSpec &spec) const;

    /**
     * Look @p spec up. Outcomes: hit (@return true, @p res filled),
     * miss (@return false, @p error empty), or corrupt entry
     * (@return false, @p error names the path and reason).
     */
    bool lookup(const ExperimentSpec &spec, ExperimentResult &res,
                std::string &error) const;

    /** Store @p res under @p spec's content address (atomic).
     *  @return an error message or "". */
    std::string store(const ExperimentSpec &spec,
                      const ExperimentResult &res) const;

  private:
    std::string root_;
};

} // namespace lf

#endif // LF_CAMPAIGN_CACHE_HH
