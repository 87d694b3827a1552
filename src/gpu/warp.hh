/**
 * @file
 * Per-warp execution context: one warp slot of an SM.
 */

#ifndef EQ_GPU_WARP_HH
#define EQ_GPU_WARP_HH

#include <memory>

#include "common/types.hh"
#include "gpu/instruction.hh"
#include "gpu/kernel_launch.hh"
#include "sim/state.hh"

namespace equalizer
{

/** One warp slot of an SM. */
struct WarpSlot
{
    bool active = false;      ///< a warp is resident in this slot
    bool paused = false;      ///< CTA pause bit (instruction buffer mask)
    int blockSlot = -1;       ///< owning block slot on the SM
    BlockId block = -1;       ///< global block id (for debugging)

    std::unique_ptr<InstructionStream> stream;
    bool hasInst = false;     ///< instruction-buffer head valid
    WarpInstruction inst;     ///< head instruction

    int pendingLoads = 0;     ///< outstanding load transactions
    Cycle readyAt = 0;        ///< scoreboard: earliest issue cycle
    Cycle lastIssueCycle = 0;
    Cycle lastResultLatency = 0;

    bool atBarrier = false;   ///< parked at a Sync instruction
    bool streamDone = false;  ///< generator exhausted

    /**
     * Instructions drawn from the stream so far. The stream itself is a
     * deterministic generator seeded by (kernel, invocation, block,
     * warp), so this count is all a checkpoint needs: a restore rebuilds
     * the stream and replays it this many times (Sm::rebindKernel).
     */
    std::uint64_t fetched = 0;

    /** Fully retired: program finished and all loads returned. */
    bool
    retired() const
    {
        return active && streamDone && !hasInst && pendingLoads == 0;
    }

    /** Clear the slot for a new warp. */
    void reset() { *this = WarpSlot{}; }

    /**
     * Serialize everything except the stream pointer, which is
     * reconstructed from the kernel by replaying `fetched` draws.
     */
    void
    visitState(StateVisitor &v)
    {
        v.field(active);
        v.field(paused);
        v.field(blockSlot);
        v.field(block);
        v.field(hasInst);
        v.field(inst);
        v.field(pendingLoads);
        v.field(readyAt);
        v.field(lastIssueCycle);
        v.field(lastResultLatency);
        v.field(atBarrier);
        v.field(streamDone);
        v.field(fetched);
        if (!v.saving())
            stream.reset(); // rebuilt by Sm::rebindKernel()
    }
};

} // namespace equalizer

#endif // EQ_GPU_WARP_HH
