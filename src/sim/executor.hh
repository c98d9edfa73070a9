/**
 * @file
 * Small helpers for driving chain programs on a Core.
 */

#ifndef LF_SIM_EXECUTOR_HH
#define LF_SIM_EXECUTOR_HH

#include <cstdint>

#include "common/types.hh"
#include "frontend/prepared.hh"
#include "isa/mix_block.hh"
#include "sim/core.hh"

namespace lf {

/**
 * Run @p iters passes over a looping chain bound to @p tid and return
 * the elapsed cycles. The chain must already be set as the thread's
 * program.
 */
inline Cycles
runLoopIters(Core &core, ThreadId tid, const ChainProgram &chain,
             std::uint64_t iters)
{
    return core.runUntilRetired(tid, iters * chain.instsPerIteration);
}

inline Cycles
runLoopIters(Core &core, ThreadId tid, const PreparedChain &prepared,
             std::uint64_t iters)
{
    return runLoopIters(core, tid, prepared.chain, iters);
}

/**
 * Bind the chain, run @p warmup_iters to reach steady state, then run
 * @p iters more and return the per-iteration average of the steady
 * phase (no noise applied — used by calibration code and tests).
 */
inline double
steadyCyclesPerIter(Core &core, ThreadId tid, const ChainProgram &chain,
                    std::uint64_t warmup_iters, std::uint64_t iters)
{
    core.setProgram(tid, &chain.program);
    runLoopIters(core, tid, chain, warmup_iters);
    const Cycles elapsed = runLoopIters(core, tid, chain, iters);
    return static_cast<double>(elapsed) / static_cast<double>(iters);
}

inline double
steadyCyclesPerIter(Core &core, ThreadId tid,
                    const PreparedChain &prepared,
                    std::uint64_t warmup_iters, std::uint64_t iters)
{
    core.setProgram(tid, prepared);
    runLoopIters(core, tid, prepared, warmup_iters);
    const Cycles elapsed = runLoopIters(core, tid, prepared, iters);
    return static_cast<double>(elapsed) / static_cast<double>(iters);
}

} // namespace lf

#endif // LF_SIM_EXECUTOR_HH
