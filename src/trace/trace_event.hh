/**
 * @file
 * The typed binary trace event — the unit of the epoch-level tracing
 * subsystem (docs/TRACING.md).
 *
 * Events are fixed-size, trivially copyable records so a ring buffer is
 * an array and a trace file is a header plus a flat run of records.
 */

#ifndef EQ_TRACE_TRACE_EVENT_HH
#define EQ_TRACE_TRACE_EVENT_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/types.hh"

#ifndef EQ_TRACE_ENABLED
#define EQ_TRACE_ENABLED 1
#endif

namespace equalizer
{

/** True when the tracing emit paths are compiled in (-DEQ_TRACE=OFF
 *  turns every emit helper into a no-op; the API stays compilable). */
inline constexpr bool traceCompiledIn = EQ_TRACE_ENABLED != 0;

/** What one trace record describes. */
enum class TraceEventKind : std::uint32_t
{
    KernelBegin,  ///< str = kernel name
    KernelEnd,    ///< str = kernel name
    EpochSample,  ///< per SM: d = {nActive, nWaiting, nAlu, nMem}
    Tendency,     ///< per SM: i = {tendency, blockDelta, targetBlocks}
    BlockTarget,  ///< per SM: i = {new target, old target}
    CtaPause,     ///< per SM: i = {block slot, block id}
    CtaResume,    ///< per SM: i = {block slot, block id}
    BlockComplete,///< per SM: i = {block id, blocks completed so far}
    VfVote,       ///< per SM: i = {sm vote, mem vote} (VfState values)
    VfStep,       ///< device: i = {domain, from, to} (requested step)
    HighWater,    ///< per SM: i = {lsu queue, inject queue, mshr}
    GaugeDef,     ///< device: str = gauge name; sm field = gauge id
    Gauge,        ///< device: d[0] = value; sm field = gauge id
    Checkpoint,   ///< device: state was saved at this cycle
    Restore,      ///< device: state was restored at this cycle
    Fork,         ///< device: this instance was forked from a parent
    Drops,        ///< per SM: i[0] = events dropped since last drain
};

/** Human-readable kind name (decision logs, debugging). */
const char *traceEventKindName(TraceEventKind k);

/**
 * One fixed-size trace record.
 *
 * The payload union carries either numbers or a short string depending
 * on the kind (see TraceEventKind). For Gauge/GaugeDef events the `sm`
 * field carries the gauge id instead of an SM index; device-level
 * events use sm = -1.
 */
struct TraceEvent
{
    Cycle cycle = 0;        ///< SM-domain cycle of the event
    TraceEventKind kind = TraceEventKind::KernelBegin;
    std::int32_t sm = -1;   ///< SM index, gauge id, or -1 (device)

    union Payload
    {
        double d[4];
        std::int64_t i[4];
        char str[32];
    } p;

    TraceEvent() { std::memset(&p, 0, sizeof(p)); }
};

static_assert(std::is_trivially_copyable_v<TraceEvent>,
              "trace events are serialized as raw bytes");
static_assert(sizeof(TraceEvent) == 48,
              "record size is part of the trace file format");

/** A device-level event (sm = -1) at @p cycle. */
TraceEvent makeDeviceEvent(TraceEventKind kind, Cycle cycle);

/** A per-SM event with up to four integer payload values. */
TraceEvent makeSmEvent(TraceEventKind kind, Cycle cycle, int sm,
                       std::int64_t i0 = 0, std::int64_t i1 = 0,
                       std::int64_t i2 = 0, std::int64_t i3 = 0);

/** A per-SM event with four double payload values. */
TraceEvent makeSampleEvent(TraceEventKind kind, Cycle cycle, int sm,
                           double d0, double d1, double d2, double d3);

/** An event whose payload is a (truncated) string, e.g. KernelBegin. */
TraceEvent makeStringEvent(TraceEventKind kind, Cycle cycle,
                           const char *s, int sm = -1);

/** The string payload, guaranteed NUL-terminated. */
std::string traceEventString(const TraceEvent &e);

} // namespace equalizer

#endif // EQ_TRACE_TRACE_EVENT_HH
