/**
 * @file
 * The tracer's gauge registry: named live metrics sampled once per
 * tracer epoch into the event stream.
 *
 * The stream is self-describing: the first sample after a gauge is
 * defined emits a GaugeDef event carrying the name, and every sample
 * emits one Gauge event per registered gauge (a fixed count per epoch,
 * keeping traces byte-identical across thread counts). The `sm` field
 * of both kinds carries the gauge id.
 */

#ifndef EQ_TRACE_GAUGE_HH
#define EQ_TRACE_GAUGE_HH

#include <string>
#include <vector>

#include "trace/trace_event.hh"

namespace equalizer
{

/** Registry of named gauges for one Tracer. */
class GaugeRegistry
{
  public:
    /**
     * Get-or-create the gauge called @p name and return its id.
     * Ids are dense and assigned in definition order.
     */
    int define(const std::string &name);

    /** Define-or-find the gauge by name and publish its current level. */
    void set(const std::string &name, double v);

    const std::string &name(int id) const;
    int size() const { return static_cast<int>(gauges_.size()); }

    /**
     * Emit GaugeDef events for gauges defined since the last call,
     * then one Gauge event per registered gauge, into @p out.
     */
    void sampleInto(std::vector<TraceEvent> &out, Cycle cycle);

  private:
    struct Entry
    {
        std::string name;
        double value = 0.0; ///< last published level
        bool announced = false;
    };

    std::vector<Entry> gauges_;
};

} // namespace equalizer

#endif // EQ_TRACE_GAUGE_HH
