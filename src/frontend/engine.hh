/**
 * @file
 * FrontendEngine: the per-cycle micro-op delivery machine for one
 * physical core with two hardware threads.
 *
 * Each cycle, one ready thread wins the delivery slot (round-robin
 * arbitration, as the MITE/DSB read port is shared between SMT
 * siblings). The winning thread delivers one chunk from:
 *   - the LSD, if a captured loop is streaming (6 uops/cycle with a
 *     bubble at every loop turnaround),
 *   - the DSB, on a micro-op cache hit (one line per cycle),
 *   - the MITE, otherwise (L1I fetch + predecode with LCP stalls +
 *     5-wide decode), which also fills the DSB.
 * Path switches charge the penalties of FrontendParams.
 *
 * The engine exposes popUops() for the backend, speculativeFetch() for
 * transient (Spectre) execution that updates frontend state without
 * retiring, and setPartitioned() for the SMT DSB repartitioning the MT
 * attacks exploit.
 */

#ifndef LF_FRONTEND_ENGINE_HH
#define LF_FRONTEND_ENGINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "frontend/bpu.hh"
#include "frontend/chunk.hh"
#include "frontend/dsb.hh"
#include "frontend/l1i_cache.hh"
#include "frontend/loop_monitor.hh"
#include "frontend/params.hh"
#include "frontend/perf_counters.hh"
#include "isa/program.hh"

namespace lf {

/**
 * Fixed-capacity ring of per-micro-op end-of-instruction flags: the
 * IDQ image. Replaces a std::deque<bool> on the delivery hot path —
 * pushes and pops touch one flat byte buffer, and clearing between
 * program rebinds is two index stores instead of a deque teardown.
 *
 * Storage is rounded up to a power of two so every index advance is a
 * mask, and the bulk pushN()/popN() forms move a whole delivery line
 * (or a whole cycle's retire budget) per call — the backend retires
 * micro-ops in batches, not one virtual call each. The flags are 0/1
 * by construction (ChunkTable and the LSD body both store literal
 * end-of-instruction markers), so popN() counts instructions by
 * summing bytes.
 */
class UopQueue
{
  public:
    /** Size the buffer for @p capacity queued micro-ops. */
    void configure(int capacity)
    {
        capacity_ = static_cast<std::size_t>(capacity);
        std::size_t round = 1;
        while (round < capacity_)
            round <<= 1;
        buf_.assign(round, 0);
        mask_ = round - 1;
        head_ = tail_ = size_ = 0;
    }

    void clear() { head_ = tail_ = size_ = 0; }
    bool empty() const { return size_ == 0; }
    int size() const { return static_cast<int>(size_); }

    void push(std::uint8_t end_of_inst)
    {
        lf_assert(size_ < capacity_, "IDQ overflow");
        buf_[tail_] = end_of_inst;
        tail_ = (tail_ + 1) & mask_;
        ++size_;
    }

    /** Append @p n flags (capacity-checked once, not per uop). */
    void pushN(const std::uint8_t *flags, int n)
    {
        lf_assert(size_ + static_cast<std::size_t>(n) <= capacity_,
                  "IDQ overflow");
        std::size_t t = tail_;
        for (int i = 0; i < n; ++i) {
            buf_[t] = flags[i];
            t = (t + 1) & mask_;
        }
        tail_ = t;
        size_ += static_cast<std::size_t>(n);
    }

    std::uint8_t pop()
    {
        lf_assert(size_ > 0, "pop from empty IDQ");
        const std::uint8_t flag = buf_[head_];
        head_ = (head_ + 1) & mask_;
        --size_;
        return flag;
    }

    /** Pop up to @p n flags; returns the number popped and adds the
     *  end-of-instruction markers seen to @p insts. */
    int popN(int n, std::uint64_t &insts)
    {
        const int have = static_cast<int>(size_);
        const int take = n < have ? n : have;
        std::uint64_t marks = 0;
        std::size_t h = head_;
        for (int i = 0; i < take; ++i) {
            marks += buf_[h]; // flags are 0/1
            h = (h + 1) & mask_;
        }
        head_ = h;
        size_ -= static_cast<std::size_t>(take);
        insts += marks;
        return take;
    }

  private:
    std::vector<std::uint8_t> buf_;
    std::size_t mask_ = 0;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t size_ = 0;
};

class FrontendEngine
{
  public:
    static constexpr int kNumThreads = 2;

    explicit FrontendEngine(const FrontendParams &params);

    /** @name Thread program control */
    /// @{
    /**
     * Bind @p program to thread @p tid and reset its pipeline state
     * (pc = entry, LSD off, IDQ drained). Shared structures (DSB,
     * L1I, BPU) are untouched — their persistence across program
     * switches is what the attacks measure.
     *
     * The program's chunk decode is resolved in this order: a caller-
     * supplied @p table (a prepared program's shared immutable
     * decode), then the engine's per-run memo keyed by Program::uid()
     * (so rebinding the same image never re-decodes it), and only
     * then a fresh build. With setProgramCacheEnabled(false) every
     * bind re-decodes — the rebuild-per-bind cost the throughput
     * bench uses as its baseline. Identical decode either way.
     *
     * A caller-supplied @p table must describe @p program and must
     * outlive the binding (the PreparedChain contract).
     */
    void setProgram(ThreadId tid, const Program *program,
                    const ChunkTable *table);
    void setProgram(ThreadId tid, const Program *program)
    {
        setProgram(tid, program, nullptr);
    }

    /** Unbind the thread (it becomes idle). */
    void clearProgram(ThreadId tid);

    /** Thread has a program and has not halted. */
    bool threadRunnable(ThreadId tid) const;
    bool threadHasProgram(ThreadId tid) const;
    /// @}

    /** Advance the frontend by one core cycle. */
    void tick();

    /**
     * Number of upcoming cycles that are provably no-ops for the
     * whole core — every IDQ is empty (the backend has nothing to
     * pop) and no thread can deliver (each runnable thread is
     * mid-stall): the minimum remaining stall across runnable
     * threads, saturated at Cycles max when no thread is runnable at
     * all. Returns 0 when the next cycle must be ticked normally.
     * LCP/decode stall bursts — the very signal the channels
     * maximize — spend most of their cycles in this state, so run
     * loops fast-forward them via skipCycles() instead of ticking.
     */
    Cycles noOpCycles() const
    {
        Cycles burn = ~static_cast<Cycles>(0);
        for (const ThreadState &ts : threads_) {
            if (!ts.idq.empty())
                return 0;
            if (ts.program == nullptr || ts.halted)
                continue;
            if (ts.stall == 0)
                return 0; // empty IDQ => space, so it delivers
            burn = burn < ts.stall ? burn : ts.stall;
        }
        return burn;
    }

    /**
     * Fast-forward @p cycles no-op cycles (caller checked
     * noOpCycles() >= cycles): bump the clock and drain stalls —
     * exactly what that many tick() calls would have done. Stalls of
     * non-runnable threads saturate at zero (their decay is
     * unobservable; setProgram() resets stall before a thread can
     * run again).
     */
    void skipCycles(Cycles cycles)
    {
        cycle_ += cycles;
        fastForwardedCycles_ += cycles;
        for (ThreadState &ts : threads_)
            ts.stall -= ts.stall < cycles ? ts.stall : cycles;
    }

    /** Cycles advanced via skipCycles() instead of ticking — how much
     *  of the trial's time was provably-idle stall burn. */
    Cycles fastForwardedCycles() const { return fastForwardedCycles_; }

    /**
     * Reinitialize to the pristine post-construction state for
     * @p params, reusing the cache/IDQ storage where possible so a
     * per-trial reset (Core::reset()) avoids the construction
     * allocations. Bit-identical to a freshly constructed engine.
     */
    void reset(const FrontendParams &params);

    /**
     * Backend interface: pop at most @p max_uops micro-ops from the
     * thread's IDQ. @p insts_retired is incremented for every
     * end-of-instruction marker popped.
     */
    int popUops(ThreadId tid, int max_uops, std::uint64_t &insts_retired);

    int idqOccupancy(ThreadId tid) const;

    /** @name SMT partitioning */
    /// @{
    void setPartitioned(bool partitioned);
    bool partitioned() const { return dsb_.partitioned(); }
    /// @}

    /** @name Mitigation hooks (src/defense) */
    /// @{
    /**
     * MITE-only delivery: with the DSB disabled, lookups never hit,
     * MITE decodes stop filling lines, and (through inclusion) the
     * LSD never engages. Disabling flushes the current contents.
     */
    void setDsbEnabled(bool enabled);
    bool dsbEnabled() const { return dsbEnabled_; }

    /**
     * Static SMT split of the LSD replay port: an engaged loop
     * streams privately into its IDQ — without arbitrating for the
     * shared MITE/DSB delivery slot — but at half the replay width,
     * whether or not the sibling thread runs (non-work-conserving).
     */
    void setLsdStaticPartition(bool partitioned);
    bool lsdStaticPartition() const { return lsdStaticPartition_; }
    /// @}

    /**
     * Transient (wrong-path) fetch: walk up to @p max_chunks chunks
     * from @p start through the normal L1I/DSB fill path *without*
     * delivering anything to the backend. Follows unconditional jumps,
     * stops at conditional branches. This models speculative frontend
     * state updates, the basis of the Spectre variant in Sec. IX.
     */
    void speculativeFetch(ThreadId tid, Addr start, int max_chunks);

    /** Flush one thread's pipeline-local frontend state (LSD, IDQ,
     *  loop detection); used at enclave entry/exit. */
    void flushThreadFrontend(ThreadId tid);

    /** @name Component and counter access */
    /// @{
    Dsb &dsb() { return dsb_; }
    const Dsb &dsb() const { return dsb_; }
    L1iCache &l1i() { return l1i_; }
    const L1iCache &l1i() const { return l1i_; }
    Bpu &bpu() { return bpu_; }
    PerfCounters &counters(ThreadId tid);
    const PerfCounters &counters(ThreadId tid) const;
    Cycles cycle() const { return cycle_; }
    const FrontendParams &params() const { return params_; }
    bool lsdActive(ThreadId tid) const;
    /// @}

  private:
    struct ThreadState
    {
        explicit ThreadState(const FrontendParams &params)
            : monitor(params)
        {
            idq.configure(params.idqEntries);
        }

        const Program *program = nullptr;
        /** Active decode; points at a caller table, a tableMemo_
         *  entry, or localTable. */
        const ChunkTable *chunks = nullptr;
        /** Fresh-per-bind decode used when table reuse is disabled. */
        std::unique_ptr<ChunkTable> localTable;
        Addr pc = 0;
        /** chunks->get(pc), when the last chunk's successor pointer
         *  already resolved it; null forces a table lookup. */
        const Chunk *nextChunk = nullptr;
        bool halted = true;
        Cycles stall = 0;
        DeliveryPath lastSource = DeliveryPath::MITE;
        UopQueue idq; //!< end-of-instruction flag per uop

        bool lsdActive = false;
        std::vector<std::uint8_t> lsdBody; //!< end-of-inst flag per body uop
        std::size_t lsdPos = 0;
        Addr lsdHead = 0;

        LoopMonitor monitor;
        bool nextIsBlockStart = true;
        bool prevChunkLcp = false;

        /** A chunk whose fetch/decode latency is still being paid;
         *  its micro-ops deliver when the stall drains. */
        const Chunk *pendingChunk = nullptr;
        bool pendingFromDsb = false;
        /** Dynamic execution count per conditional-branch condId
         *  (small caller-chosen ints, so a flat array beats a hash
         *  map on the per-branch path; grown on demand). */
        std::vector<std::uint64_t> condCounts;
        PerfCounters counters;
    };

    ThreadState &state(ThreadId tid);
    const ThreadState &state(ThreadId tid) const;

    const ChunkTable *resolveTable(ThreadState &ts, const Program *program,
                                   const ChunkTable *table);
    bool deliverable(const ThreadState &ts) const;
    void deliver(ThreadId tid);
    void deliverLsd(ThreadId tid);
    Cycles dsbPenalty(ThreadId tid, const Chunk &chunk);
    Cycles mitePenalty(ThreadId tid, const Chunk &chunk);
    void deliverFromDsb(ThreadId tid, const Chunk &chunk);
    void deliverFromMite(ThreadId tid, const Chunk &chunk);
    void finishChunk(ThreadId tid, const Chunk &chunk, bool from_dsb);
    void pushUops(ThreadId tid, const Chunk &chunk);
    void engageLsd(ThreadId tid);
    void flushLsd(ThreadId tid);
    bool lsdQualifies(ThreadId tid) const;
    void onDsbEvict(ThreadId tid, Addr key);
    void poisonSet(Addr key);
    bool setPoisoned(Addr key) const;
    Cycles chargeL1i(ThreadId tid, const Chunk &chunk);

    FrontendParams params_;
    L1iCache l1i_;
    Dsb dsb_;
    Bpu bpu_;
    bool dsbEnabled_ = true;
    bool lsdStaticPartition_ = false;
    std::array<ThreadState, kNumThreads> threads_;
    Cycles cycle_ = 0;
    Cycles fastForwardedCycles_ = 0;
    int lastSlot_ = kNumThreads - 1;

    /** Decodes built for plain setProgram(tid, program) binds, keyed
     *  by Program::uid() (never reused, so entries cannot alias a new
     *  image). Cleared on reset(), i.e. once per trial. */
    std::unordered_map<std::uint64_t, std::unique_ptr<ChunkTable>>
        tableMemo_;

    /** Misalignment poison per (full-index) DSB set: the block clock
     *  value at which the poison expires. */
    std::vector<std::uint64_t> poisonDeadline_;
    std::uint64_t blockClock_ = 0;
};

} // namespace lf

#endif // LF_FRONTEND_ENGINE_HH
