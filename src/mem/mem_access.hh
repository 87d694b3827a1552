/**
 * @file
 * The memory transaction unit exchanged between SMs and the memory system.
 */

#ifndef EQ_MEM_MEM_ACCESS_HH
#define EQ_MEM_MEM_ACCESS_HH

#include "common/types.hh"

namespace equalizer
{

/** Bytes per cache line / DRAM burst throughout the model. */
inline constexpr Addr lineBytes = 128;

/**
 * One 128-byte memory transaction.
 *
 * Produced by the LSU coalescer (one warp load/store expands into one or
 * more of these) and routed L1 -> NoC -> L2 -> DRAM and back.
 */
struct MemAccess
{
    Addr lineAddr = 0;   ///< line-aligned address
    SmId sm = 0;         ///< issuing SM (for the response route)
    WarpId warp = 0;     ///< warp to wake when data returns
    bool write = false;  ///< store (no response needed)
    bool texture = false;///< texture path: deep buffering, no LSU pressure

    /** Field by field: the struct has 6 padding bytes. */
    template <class V>
    void visitState(V &v) { v.fields(lineAddr, sm, warp, write, texture); }
};

} // namespace equalizer

#endif // EQ_MEM_MEM_ACCESS_HH
