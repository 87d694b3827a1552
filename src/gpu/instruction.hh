/**
 * @file
 * The abstract warp instruction consumed by the SM pipeline model.
 *
 * Instruction streams are synthetic (see DESIGN.md): each instruction
 * carries exactly the microarchitectural information the timing model
 * needs — operation class, dependence on earlier results, and, for memory
 * operations, the run of lines its coalesced transactions touch.
 */

#ifndef EQ_GPU_INSTRUCTION_HH
#define EQ_GPU_INSTRUCTION_HH

#include <cstdint>
#include <type_traits>

#include "common/types.hh"
#include "mem/mem_access.hh"

namespace equalizer
{

/** Functional class of a warp instruction. */
enum class OpClass
{
    Alu,    ///< integer/float arithmetic
    Sfu,    ///< special function (transcendental)
    Mem,    ///< global/texture load or store
    Shared, ///< on-chip scratchpad (shared memory) access
    Sync,   ///< block-wide barrier
};

/** SIMT width of a warp. */
inline constexpr int warpLanes = 32;

/** Maximum coalesced 128 B transactions per warp memory instruction. */
inline constexpr int maxTransactionsPerInst = 32;

/** One decoded warp instruction at the head of the instruction buffer. */
struct WarpInstruction
{
    OpClass op = OpClass::Alu;

    /**
     * Active SIMT lanes (branch divergence): fewer lanes do the same
     * work in time but burn proportionally less datapath energy.
     */
    int activeLanes = warpLanes;

    /**
     * For Shared ops: bank-conflict serialization factor. A conflicted
     * access occupies the shared-memory pipe for this many cycles.
     */
    int conflictWays = 1;

    /**
     * True when this instruction reads the result of the warp's previous
     * arithmetic instruction (stalls until its latency elapses).
     */
    bool dependsOnPrev = false;

    /**
     * True when this instruction consumes data from the warp's
     * outstanding loads (stalls until pendingLoads reaches zero).
     */
    bool dependsOnLoads = false;

    // --- Memory-instruction payload: transaction t touches line
    // (firstLine + t) of the region at `base`, modulo wrapLines when
    // that is non-zero (a working set the warp cycles through).
    bool write = false;
    bool texture = false;
    int transactionCount = 0;
    std::int32_t wrapLines = 0;
    Addr base = 0;
    Addr firstLine = 0;

    /** Line address of transaction @p t (0 <= t < transactionCount). */
    Addr
    lineAddr(int t) const
    {
        const Addr line = firstLine + static_cast<Addr>(t);
        return base +
               (wrapLines ? line % static_cast<Addr>(wrapLines) : line) *
                   lineBytes;
    }
};

// No padding: checkpoints copy warp slots and LSU entries raw.
static_assert(std::has_unique_object_representations_v<WarpInstruction>);
static_assert(sizeof(WarpInstruction) <= 40);

} // namespace equalizer

#endif // EQ_GPU_INSTRUCTION_HH
