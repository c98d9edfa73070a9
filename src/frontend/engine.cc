#include "frontend/engine.hh"
#include <algorithm>

#include "common/logging.hh"
#include "frontend/prepared.hh"

namespace lf {

FrontendEngine::FrontendEngine(const FrontendParams &params)
    : params_(params), l1i_(params), dsb_(params),
      threads_{ThreadState(params), ThreadState(params)},
      poisonDeadline_(static_cast<std::size_t>(params.dsbSets), 0)
{
    dsb_.setEvictCallback([this](ThreadId tid, Addr key) {
        onDsbEvict(tid, key);
    });
}

void
FrontendEngine::reset(const FrontendParams &params)
{
    params_ = params;
    l1i_.reset(params);
    dsb_.reset(params); // keeps the eviction callback bound to us
    bpu_.reset();
    dsbEnabled_ = true;
    lsdStaticPartition_ = false;
    cycle_ = 0;
    fastForwardedCycles_ = 0;
    lastSlot_ = kNumThreads - 1;
    poisonDeadline_.assign(static_cast<std::size_t>(params.dsbSets), 0);
    blockClock_ = 0;
    tableMemo_.clear();
    for (auto &ts : threads_) {
        ts.program = nullptr;
        ts.chunks = nullptr;
        ts.localTable.reset();
        ts.pc = 0;
        ts.nextChunk = nullptr;
        ts.halted = true;
        ts.stall = 0;
        ts.lastSource = DeliveryPath::MITE;
        ts.idq.configure(params.idqEntries);
        ts.lsdActive = false;
        ts.lsdBody.clear();
        ts.lsdPos = 0;
        ts.lsdHead = 0;
        ts.monitor = LoopMonitor(params);
        ts.nextIsBlockStart = true;
        ts.prevChunkLcp = false;
        ts.pendingChunk = nullptr;
        ts.pendingFromDsb = false;
        if (!ts.condCounts.empty())
            ts.condCounts.clear();
        ts.counters = PerfCounters{};
    }
}

FrontendEngine::ThreadState &
FrontendEngine::state(ThreadId tid)
{
    lf_assert(tid >= 0 && tid < kNumThreads, "bad thread id %d", tid);
    return threads_[static_cast<std::size_t>(tid)];
}

const FrontendEngine::ThreadState &
FrontendEngine::state(ThreadId tid) const
{
    return const_cast<FrontendEngine *>(this)->state(tid);
}

PerfCounters &
FrontendEngine::counters(ThreadId tid)
{
    return state(tid).counters;
}

const PerfCounters &
FrontendEngine::counters(ThreadId tid) const
{
    return state(tid).counters;
}

bool
FrontendEngine::lsdActive(ThreadId tid) const
{
    return state(tid).lsdActive;
}

const ChunkTable *
FrontendEngine::resolveTable(ThreadState &ts, const Program *program,
                             const ChunkTable *table)
{
    if (!program) {
        ts.localTable.reset();
        return nullptr;
    }
    if (!programCacheEnabled()) {
        // Reference rebind cost (bench baseline): re-decode the whole
        // image on every bind. The decode is identical, only the work
        // is repeated.
        ts.localTable = std::make_unique<ChunkTable>(*program, params_);
        return ts.localTable.get();
    }
    if (table)
        return table;
    auto &slot = tableMemo_[program->uid()];
    if (!slot)
        slot = std::make_unique<ChunkTable>(*program, params_);
    return slot.get();
}

void
FrontendEngine::setProgram(ThreadId tid, const Program *program,
                           const ChunkTable *table)
{
    ThreadState &ts = state(tid);
    ts.program = program;
    ts.chunks = resolveTable(ts, program, table);
    ts.pc = program ? program->entry() : 0;
    ts.nextChunk = nullptr;
    ts.halted = (program == nullptr);
    ts.stall = 0;
    ts.lastSource = DeliveryPath::MITE;
    ts.idq.clear();
    ts.lsdActive = false;
    ts.lsdBody.clear();
    ts.lsdPos = 0;
    ts.lsdHead = 0;
    ts.monitor.reset();
    ts.nextIsBlockStart = true;
    ts.prevChunkLcp = false;
    ts.pendingChunk = nullptr;
    ts.pendingFromDsb = false;
    if (!ts.condCounts.empty())
        ts.condCounts.clear();
}

void
FrontendEngine::clearProgram(ThreadId tid)
{
    setProgram(tid, nullptr);
}

bool
FrontendEngine::threadRunnable(ThreadId tid) const
{
    const ThreadState &ts = state(tid);
    return ts.program != nullptr && !ts.halted;
}

bool
FrontendEngine::threadHasProgram(ThreadId tid) const
{
    return state(tid).program != nullptr;
}

int
FrontendEngine::idqOccupancy(ThreadId tid) const
{
    return static_cast<int>(state(tid).idq.size());
}

bool
FrontendEngine::deliverable(const ThreadState &ts) const
{
    if (!ts.program || ts.halted || ts.stall > 0)
        return false;
    // Require space for a worst-case chunk so delivery never splits.
    return ts.idq.size() + params_.dsbLineUops <= params_.idqEntries;
}

void
FrontendEngine::tick()
{
    ++cycle_;
    std::array<bool, kNumThreads> delivered{};
    if (lsdStaticPartition_) {
        // Statically split replay port: engaged loops stream
        // privately into their IDQs and leave the shared MITE/DSB
        // slot to the non-streaming thread(s).
        for (int tid = 0; tid < kNumThreads; ++tid) {
            ThreadState &ts = threads_[static_cast<std::size_t>(tid)];
            if (ts.lsdActive && !ts.pendingChunk && deliverable(ts)) {
                deliverLsd(tid);
                delivered[static_cast<std::size_t>(tid)] = true;
            }
        }
    }
    for (int i = 0; i < kNumThreads; ++i) {
        const int tid = (lastSlot_ + 1 + i) % kNumThreads;
        if (delivered[static_cast<std::size_t>(tid)])
            continue;
        if (!deliverable(threads_[static_cast<std::size_t>(tid)]))
            continue;
        deliver(tid);
        lastSlot_ = tid;
        delivered[static_cast<std::size_t>(tid)] = true;
        break;
    }
    // Stall cycles elapse for every thread that did not deliver this
    // cycle; a stall of N set during delivery blocks exactly the next
    // N cycles.
    for (int tid = 0; tid < kNumThreads; ++tid) {
        ThreadState &ts = threads_[static_cast<std::size_t>(tid)];
        if (!delivered[static_cast<std::size_t>(tid)] && ts.stall > 0)
            --ts.stall;
    }
}

void
FrontendEngine::deliver(ThreadId tid)
{
    ThreadState &ts = state(tid);
    if (ts.pendingChunk) {
        // The fetch/decode latency of this chunk has been paid; its
        // micro-ops arrive now.
        const Chunk *chunk = ts.pendingChunk;
        ts.pendingChunk = nullptr;
        if (ts.pendingFromDsb)
            deliverFromDsb(tid, *chunk);
        else
            deliverFromMite(tid, *chunk);
        return;
    }
    if (ts.lsdActive) {
        deliverLsd(tid);
        return;
    }
    const Chunk *chunk =
        ts.nextChunk != nullptr ? ts.nextChunk : ts.chunks->get(ts.pc);
    if (!chunk || chunk->halt) {
        ts.halted = true;
        return;
    }
    const bool hit = dsbEnabled_ && dsb_.lookup(tid, ts.pc) >= 0;
    const Cycles penalty =
        hit ? dsbPenalty(tid, *chunk) : mitePenalty(tid, *chunk);
    if (penalty > 0) {
        // Pay the latency first; deliver when it has drained.
        ts.stall += penalty;
        ts.pendingChunk = chunk;
        ts.pendingFromDsb = hit;
        return;
    }
    if (hit)
        deliverFromDsb(tid, *chunk);
    else
        deliverFromMite(tid, *chunk);
}

Cycles
FrontendEngine::dsbPenalty(ThreadId tid, const Chunk &chunk)
{
    (void)chunk;
    ThreadState &ts = state(tid);
    if (ts.lastSource != DeliveryPath::DSB) {
        ts.counters.switchPenaltyCycles += params_.miteToDsbSwitch;
        ++ts.counters.miteToDsbSwitches;
        return params_.miteToDsbSwitch;
    }
    return 0;
}

Cycles
FrontendEngine::mitePenalty(ThreadId tid, const Chunk &chunk)
{
    ThreadState &ts = state(tid);
    Cycles penalty = 0;
    if (ts.lastSource != DeliveryPath::MITE) {
        penalty += params_.dsbToMiteSwitch;
        ts.counters.switchPenaltyCycles += params_.dsbToMiteSwitch;
        ++ts.counters.dsbToMiteSwitches;
    }
    penalty += chargeL1i(tid, chunk);

    // Decode: decodeWidth simple instructions per cycle, limited by
    // the legacy fetch bandwidth; every LCP'd instruction predecodes
    // serially with an extra stall.
    const int plain_insts = chunk.numInsts() - chunk.lcpCount;
    const Cycles width_cycles =
        static_cast<Cycles>((plain_insts + params_.decodeWidth - 1) /
                            params_.decodeWidth);
    const Cycles fetch_cycles = static_cast<Cycles>(
        (chunk.bytes + params_.fetchBytesPerCycle - 1) /
        params_.fetchBytesPerCycle);
    Cycles decode_cycles = std::max(width_cycles, fetch_cycles);
    if (chunk.endsBranch)
        decode_cycles += params_.miteBranchBubble;
    if (chunk.lcpCount > 0) {
        // Consecutive LCP'd instructions serialize the predecoder
        // (Sec. IV-H: "LCP instructions are only decoded
        // sequentially"): back-to-back LCPs stall 4x as long.
        const Cycles per_lcp = ts.prevChunkLcp
            ? params_.lcpStall * 4 : params_.lcpStall;
        const Cycles stall_cycles =
            static_cast<Cycles>(chunk.lcpCount) * per_lcp;
        ts.counters.lcpStallCycles += stall_cycles;
        decode_cycles += stall_cycles +
            static_cast<Cycles>(chunk.lcpCount);
    }
    ts.prevChunkLcp = chunk.lcpCount > 0;
    if (decode_cycles > 0)
        penalty += decode_cycles - 1; // the delivery cycle itself
    return penalty;
}

void
FrontendEngine::deliverLsd(ThreadId tid)
{
    ThreadState &ts = state(tid);
    const std::size_t body_uops = ts.lsdBody.size();
    lf_assert(body_uops > 0, "LSD active with empty body");
    const int space = params_.idqEntries - ts.idq.size();
    // A statically partitioned replay port streams at half width —
    // the thread keeps only its half even with the sibling idle.
    const int width = lsdStaticPartition_
        ? std::max(1, params_.dsbLineUops / 2) : params_.dsbLineUops;
    int n = std::min({width,
                      static_cast<int>(body_uops - ts.lsdPos), space});
    lf_assert(n > 0, "LSD delivery with no progress");
    ts.idq.pushN(ts.lsdBody.data() + ts.lsdPos, n);
    ts.lsdPos += static_cast<std::size_t>(n);
    ts.counters.uopsLsd += static_cast<std::uint64_t>(n);
    ++ts.counters.idqPushes;
    ts.counters.idqPushedUops += static_cast<std::uint64_t>(n);
    ts.counters.idqOccupancyAtPush +=
        static_cast<std::uint64_t>(ts.idq.size());
    ts.lastSource = DeliveryPath::LSD;
    if (ts.lsdPos == body_uops) {
        ts.lsdPos = 0;
        ts.stall += params_.lsdLoopBubble;
    }
}

void
FrontendEngine::pushUops(ThreadId tid, const Chunk &chunk)
{
    ThreadState &ts = state(tid);
    ts.idq.pushN(chunk.endOfInst, chunk.uops);
    ++ts.counters.idqPushes;
    ts.counters.idqPushedUops += static_cast<std::uint64_t>(chunk.uops);
    ts.counters.idqOccupancyAtPush +=
        static_cast<std::uint64_t>(ts.idq.size());
}

void
FrontendEngine::deliverFromDsb(ThreadId tid, const Chunk &chunk)
{
    ThreadState &ts = state(tid);
    pushUops(tid, chunk);
    ts.counters.uopsDsb += static_cast<std::uint64_t>(chunk.uops);
    ts.lastSource = DeliveryPath::DSB;
    ts.prevChunkLcp = false;
    finishChunk(tid, chunk, true);
}

Cycles
FrontendEngine::chargeL1i(ThreadId tid, const Chunk &chunk)
{
    ThreadState &ts = state(tid);
    Cycles penalty = 0;
    const Addr line_mask = ~static_cast<Addr>(l1i_.lineBytes() - 1);
    const Addr first_line = chunk.start & line_mask;
    const Addr last_line =
        (chunk.start + static_cast<Addr>(chunk.bytes) - 1) & line_mask;
    for (Addr line = first_line; line <= last_line;
         line += static_cast<Addr>(l1i_.lineBytes())) {
        const L1iAccessResult res = l1i_.access(line);
        ++ts.counters.l1iAccesses;
        if (!res.hit) {
            ++ts.counters.l1iMisses;
            ts.counters.l1iMissStallCycles +=
                static_cast<std::uint64_t>(res.latency);
            penalty += res.latency;
        }
    }
    return penalty;
}

void
FrontendEngine::deliverFromMite(ThreadId tid, const Chunk &chunk)
{
    ThreadState &ts = state(tid);
    if (dsbEnabled_ && chunk.cacheable())
        dsb_.insert(tid, chunk.start, chunk.uops);
    pushUops(tid, chunk);
    ts.counters.uopsMite += static_cast<std::uint64_t>(chunk.uops);
    ts.lastSource = DeliveryPath::MITE;
    finishChunk(tid, chunk, false);
}

void
FrontendEngine::finishChunk(ThreadId tid, const Chunk &chunk,
                            bool from_dsb)
{
    ThreadState &ts = state(tid);

    const bool block_start = ts.nextIsBlockStart;
    ts.nextIsBlockStart = false;
    if (block_start) {
        ++blockClock_;
        ++ts.counters.blocksDelivered;
        if (!chunk.aligned())
            poisonSet(chunk.start);
    }

    ts.monitor.recordChunk(
        {chunk.start, chunk.uops, from_dsb, block_start});

    if (!chunk.endsBranch) {
        ts.pc = chunk.fallThrough;
        ts.nextChunk = chunk.fallChunk;
        return;
    }

    const StaticInst *br = chunk.branch();
    bool taken = true;
    Addr next = br->target;
    const Chunk *next_chunk = chunk.takenChunk;
    if (br->isCondBranch()) {
        const auto cond = static_cast<std::size_t>(br->condId);
        if (cond >= ts.condCounts.size())
            ts.condCounts.resize(cond + 1, 0);
        const std::uint64_t count = ts.condCounts[cond]++;
        taken = ts.program->evalCond(br->condId, count);
        const bool predicted = bpu_.predictCond(br->addr);
        bpu_.updateCond(br->addr, taken);
        if (predicted != taken) {
            ts.stall += params_.condMispredictPenalty;
            ++ts.counters.condMispredicts;
            ts.counters.mispredictStallCycles +=
                static_cast<std::uint64_t>(
                    params_.condMispredictPenalty);
            bpu_.noteCondMispredict();
        }
        next = taken ? br->target : br->nextAddr();
        if (!taken)
            next_chunk = chunk.notTakenChunk;
    }

    if (taken) {
        if (!bpu_.btbHas(br->addr)) {
            bpu_.btbInsert(br->addr, br->target);
            ts.stall += params_.btbMissPenalty;
            ++ts.counters.btbMisses;
            ts.counters.btbMissStallCycles +=
                static_cast<std::uint64_t>(params_.btbMissPenalty);
            bpu_.noteBtbMiss();
        }
        ts.nextIsBlockStart = true;
        const bool engage = ts.monitor.recordTakenBranch(br->addr, next);
        if (engage && lsdQualifies(tid)) {
            ts.pc = next;
            ts.nextChunk = next_chunk;
            engageLsd(tid);
            return;
        }
    }
    ts.pc = next;
    ts.nextChunk = next_chunk;
}

bool
FrontendEngine::lsdQualifies(ThreadId tid) const
{
    if (!params_.lsdEnabled)
        return false;
    const ThreadState &ts = state(tid);
    for (Addr key : ts.monitor.bodyKeys()) {
        if (!dsb_.contains(tid, key))
            return false;
        if (setPoisoned(key))
            return false;
    }
    return !ts.monitor.bodyKeys().empty();
}

void
FrontendEngine::engageLsd(ThreadId tid)
{
    ThreadState &ts = state(tid);
    ts.lsdBody.clear();
    for (Addr key : ts.monitor.bodyKeys()) {
        const Chunk *chunk = ts.chunks->get(key);
        lf_assert(chunk != nullptr, "LSD body chunk vanished");
        ts.lsdBody.insert(ts.lsdBody.end(), chunk->endOfInst,
                          chunk->endOfInst + chunk->uops);
    }
    lf_assert(static_cast<int>(ts.lsdBody.size()) <=
              params_.lsdCapacityUops, "LSD body exceeds capacity");
    ts.lsdActive = true;
    ts.lsdPos = 0;
    ts.lsdHead = ts.monitor.head();
    ++ts.counters.lsdEngagements;
}

void
FrontendEngine::flushLsd(ThreadId tid)
{
    ThreadState &ts = state(tid);
    if (ts.lsdActive) {
        ts.lsdActive = false;
        // Restart the interrupted iteration from the loop head; the
        // LSD's in-flight position is lost with the flush.
        ts.pc = ts.lsdHead;
        ts.nextChunk = nullptr;
        ts.lsdPos = 0;
        ts.nextIsBlockStart = true;
        ++ts.counters.lsdFlushes;
    }
    ts.monitor.reset();
}

void
FrontendEngine::onDsbEvict(ThreadId tid, Addr key)
{
    // Inclusive hierarchy: losing a DSB line kills any LSD loop (or
    // loop candidate) built on it.
    ThreadState &ts = state(tid);
    if (ts.lsdActive) {
        if (ts.monitor.bodyContains(key))
            flushLsd(tid);
    } else if (ts.monitor.head() != 0) {
        ts.monitor.reset();
    }
}

void
FrontendEngine::poisonSet(Addr key)
{
    const auto set = static_cast<std::size_t>(
        (key >> 5) & static_cast<Addr>(params_.dsbSets - 1));
    poisonDeadline_[set] =
        blockClock_ + static_cast<std::uint64_t>(params_.poisonDecayBlocks);
}

bool
FrontendEngine::setPoisoned(Addr key) const
{
    const auto set = static_cast<std::size_t>(
        (key >> 5) & static_cast<Addr>(params_.dsbSets - 1));
    return blockClock_ < poisonDeadline_[set];
}

void
FrontendEngine::setDsbEnabled(bool enabled)
{
    if (dsbEnabled_ == enabled)
        return;
    dsbEnabled_ = enabled;
    if (!enabled) {
        // The micro-op cache goes dark: resident lines (and any LSD
        // loop built on them, via the eviction callback) are lost.
        dsb_.flushAll();
    }
}

void
FrontendEngine::setLsdStaticPartition(bool partitioned)
{
    lsdStaticPartition_ = partitioned;
}

void
FrontendEngine::setPartitioned(bool partitioned)
{
    if (dsb_.partitioned() == partitioned)
        return;
    dsb_.setPartitioned(partitioned);
    // Repartitioning interrupts loop streaming on both threads.
    for (int tid = 0; tid < kNumThreads; ++tid) {
        if (threads_[static_cast<std::size_t>(tid)].program)
            flushLsd(tid);
    }
}

int
FrontendEngine::popUops(ThreadId tid, int max_uops,
                        std::uint64_t &insts_retired)
{
    ThreadState &ts = state(tid);
    std::uint64_t insts = 0;
    const int popped = ts.idq.popN(max_uops, insts);
    if (popped > 0)
        ++ts.counters.idqPops;
    ts.counters.retiredUops += static_cast<std::uint64_t>(popped);
    ts.counters.retiredInsts += insts;
    insts_retired += insts;
    return popped;
}

void
FrontendEngine::speculativeFetch(ThreadId tid, Addr start, int max_chunks)
{
    ThreadState &ts = state(tid);
    if (!ts.chunks)
        return;
    Addr pc = start;
    for (int i = 0; i < max_chunks; ++i) {
        const Chunk *chunk = ts.chunks->get(pc);
        if (!chunk || chunk->halt)
            return;
        if (!dsbEnabled_ || dsb_.lookup(tid, pc) < 0) {
            chargeL1i(tid, *chunk); // latency irrelevant on wrong path
            if (dsbEnabled_)
                dsb_.insert(tid, chunk->start, chunk->uops);
        }
        ++ts.counters.specChunks;
        if (chunk->endsBranch) {
            const StaticInst *br = chunk->branch();
            if (br->isCondBranch())
                return; // nested speculation not modelled
            pc = br->target;
        } else {
            pc = chunk->fallThrough;
        }
    }
}

void
FrontendEngine::flushThreadFrontend(ThreadId tid)
{
    ThreadState &ts = state(tid);
    flushLsd(tid);
    ts.idq.clear();
    ts.lastSource = DeliveryPath::MITE;
    ts.nextIsBlockStart = true;
    ts.pendingChunk = nullptr;
    ts.pendingFromDsb = false;
}

} // namespace lf
