/**
 * @file
 * Top-level GPU configuration (paper Table III: Fermi GTX480 flavour).
 */

#ifndef EQ_GPU_GPU_CONFIG_HH
#define EQ_GPU_GPU_CONFIG_HH

#include "common/types.hh"
#include "mem/mem_config.hh"

namespace equalizer
{

/** Warp scheduling policy of an SM. */
enum class SchedulerPolicy
{
    LooseRoundRobin, ///< rotate the start warp every cycle
    GreedyThenOldest,///< keep issuing the last warp until it stalls
};

/** Whole-GPU structural configuration. */
struct GpuConfig
{
    int numSms = 15;          ///< Table III: 15 SMs
    int maxBlocksPerSm = 8;   ///< Table III: 8 blocks
    int maxWarpsPerSm = 48;   ///< Table III: 48 warps
    int issueWidth = 2;       ///< dual warp schedulers per SM

    Cycle aluDepLatency = 10; ///< result latency of an ALU op (SM cycles)
    Cycle sfuDepLatency = 20; ///< result latency of an SFU op

    int lsuQueueDepth = 4;    ///< warp memory instructions buffered in LSU
    int lsuThroughput = 2;    ///< coalesced transactions presented per cycle

    Cycle smemLatency = 24;   ///< shared-memory load-to-use (SM cycles)

    /**
     * Operand-collector register-file read ports per cycle. Each issued
     * instruction consumes ~3 reads; the default leaves dual issue
     * unconstrained, lower values model register-file pressure.
     */
    int regReadPorts = 8;

    double smNominalHz = 700e6;   ///< GTX480 core clock
    double memNominalHz = 924e6;  ///< memory-system clock (GDDR5 command)

    SchedulerPolicy scheduler = SchedulerPolicy::LooseRoundRobin;

    /**
     * Cycle-skipping fast path (docs/FAST_PATH.md): an SM that is
     * provably stalled sleeps until its wakeup or a memory-side event
     * instead of ticking through dead cycles, and is credited for them
     * lazily. Bit-identical to the slow path by construction; turn off
     * (every SM ticks every cycle) to debug a suspected divergence.
     * Deliberately NOT part of the checkpoint config fingerprint — fast
     * and slow runs of the same machine produce interchangeable
     * (byte-identical) checkpoints.
     */
    bool fastPath = true;

    MemConfig mem = MemConfig::gtx480();

    /** Default GTX480-like configuration. */
    static GpuConfig
    gtx480()
    {
        return GpuConfig{};
    }
};

} // namespace equalizer

#endif // EQ_GPU_GPU_CONFIG_HH
