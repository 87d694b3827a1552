#include "gauge.hh"

#include "common/log.hh"

namespace equalizer
{

int
GaugeRegistry::define(const std::string &name)
{
    for (std::size_t i = 0; i < gauges_.size(); ++i)
        if (gauges_[i].name == name)
            return static_cast<int>(i);
    gauges_.push_back(Entry{name, 0.0, false});
    return static_cast<int>(gauges_.size() - 1);
}

void
GaugeRegistry::set(const std::string &name, double v)
{
    gauges_[static_cast<std::size_t>(define(name))].value = v;
}

const std::string &
GaugeRegistry::name(int id) const
{
    EQ_ASSERT(id >= 0 && id < size(), "unknown gauge id ", id);
    return gauges_[static_cast<std::size_t>(id)].name;
}

void
GaugeRegistry::sampleInto(std::vector<TraceEvent> &out, Cycle cycle)
{
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
        auto &e = gauges_[i];
        if (!e.announced) {
            out.push_back(makeStringEvent(TraceEventKind::GaugeDef,
                                          cycle, e.name.c_str(),
                                          static_cast<int>(i)));
            e.announced = true;
        }
        TraceEvent ev;
        ev.cycle = cycle;
        ev.kind = TraceEventKind::Gauge;
        ev.sm = static_cast<int>(i);
        ev.p.d[0] = e.value;
        out.push_back(ev);
    }
}

} // namespace equalizer
