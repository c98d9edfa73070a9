/**
 * @file
 * Prepared (pre-decoded) attack workloads and the process-wide cache
 * that shares them across trials.
 *
 * Every trial of a sweep used to regenerate, re-assemble, and re-chunk
 * the same handful of ISA programs: a channel's setup() called the
 * mix-block builders, and each Core::setProgram() rebuilt the chunk
 * decode from scratch. A PreparedChain bundles the built ChainProgram
 * with its immutable ChunkTable, and the prepare*() helpers memoise
 * PreparedChains process-wide, keyed by the builder arguments plus the
 * DSB line capacity (the only frontend parameter the decode depends
 * on). Two trials of the same resolved (channel, config) therefore
 * share one read-only decode — tables are immutable, so cross-thread
 * sharing is safe — and a trial's hot path does no decode work at all.
 *
 * Caching never changes results: a cached PreparedChain is
 * bit-identical to a freshly built one, and the enable switch below
 * exists precisely so tests and benches can prove that (and so the
 * throughput bench can measure the rebuild-per-trial cost in-run).
 */

#ifndef LF_FRONTEND_PREPARED_HH
#define LF_FRONTEND_PREPARED_HH

#include <memory>
#include <vector>

#include "common/types.hh"
#include "frontend/chunk.hh"
#include "isa/mix_block.hh"

namespace lf {

/** A built chain program plus its precomputed chunk decode. */
struct PreparedChain
{
    ChainProgram chain;
    ChunkTable table; //!< Built against chain.program.
};

using PreparedChainPtr = std::shared_ptr<const PreparedChain>;

/** @name Cached workload builders
 * Each mirrors the corresponding build*() of isa/mix_block.hh and
 * returns a shared immutable PreparedChain. @p line_uops is the
 * resolved FrontendParams::dsbLineUops of the model the chain will run
 * on (it parameterises the chunk decode). */
/// @{
PreparedChainPtr prepareMixBlockChain(Addr base, int set,
                                      const std::vector<BlockSpec> &specs,
                                      int line_uops);
PreparedChainPtr prepareAlignedMisalignedChain(Addr base, int set,
                                               int aligned_blocks,
                                               int misaligned_blocks,
                                               int first_way,
                                               int line_uops);
PreparedChainPtr prepareMixBlockPass(Addr base, int set,
                                     const std::vector<BlockSpec> &specs,
                                     int line_uops);
PreparedChainPtr prepareNopLoop(Addr base, int nops, int line_uops);
PreparedChainPtr prepareLcpAddLoop(Addr base, LcpPattern pattern, int r,
                                   int line_uops);
/// @}

/** @name Hot-path caching switch (test/bench instrumentation)
 * Process-global; flip only while no runner is active. Results are
 * bit-identical either way — that invariant is what the streaming
 * tests assert and what makes the switch safe to expose.
 */
/// @{
/** Share prepared chains across trials and chunk tables across
 *  setProgram() rebinds of the same Program (default on). Off:
 *  prepare*() builds a fresh chain per call and every setProgram()
 *  re-decodes (see FrontendEngine::setProgram) — the rebuild-per-
 *  trial reference cost. */
void setProgramCacheEnabled(bool on);
bool programCacheEnabled();

/** Entries currently in the process-wide prepared-chain cache. */
std::size_t programCacheSize();

/** @name Prepared-cache hit/miss accounting (src/obs)
 * A hit is a prepare*() call served from the process-wide cache; a
 * miss built a chain (including every call while the cache is
 * disabled). The process-wide totals feed RunMetrics; the thread-
 * local pair attributes hits to a single trial — runner workers
 * execute trials serially, so a before/after delta on the calling
 * thread is exactly that trial's traffic. */
/// @{
std::uint64_t preparedCacheHits();
std::uint64_t preparedCacheMisses();
std::uint64_t preparedCacheThreadHits();
std::uint64_t preparedCacheThreadMisses();
/// @}

/** Drop every cached chain (outstanding shared_ptrs stay valid). */
void clearProgramCache();
/// @}

/**
 * RAII guard: run a scope with program caching forced to @p on,
 * restoring the previous switch on exit. Used by the identity tests
 * and the reference-baseline bench sections.
 */
class ProgramCachingScope
{
  public:
    explicit ProgramCachingScope(bool on) : prev_(programCacheEnabled())
    {
        setProgramCacheEnabled(on);
    }
    ~ProgramCachingScope() { setProgramCacheEnabled(prev_); }
    ProgramCachingScope(const ProgramCachingScope &) = delete;
    ProgramCachingScope &operator=(const ProgramCachingScope &) = delete;

  private:
    bool prev_;
};

} // namespace lf

#endif // LF_FRONTEND_PREPARED_HH
