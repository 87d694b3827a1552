#include "spans.hh"

#include <cstdio>

namespace eqbench
{

using namespace equalizer;

int
SpanLog::begin(std::string name, int item, int parent)
{
    Span s;
    s.name = std::move(name);
    s.item = item;
    s.parent = parent;
    s.startS = secondsSince(origin_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::end(int span)
{
    spans_[static_cast<std::size_t>(span)].endS = secondsSince(origin_);
}

void
SpanLog::count(int span, const std::string &key, double value)
{
    auto &counters = spans_[static_cast<std::size_t>(span)].counters;
    for (auto &[k, v] : counters) {
        if (k == key) {
            v += value;
            return;
        }
    }
    counters.emplace_back(key, value);
}

double
SpanLog::topLevelSeconds() const
{
    double total = 0.0;
    for (const auto &s : spans_)
        if (s.parent < 0)
            total += s.endS - s.startS;
    return total;
}

double
SpanLog::secondsIn(const std::string &name) const
{
    double total = 0.0;
    for (const auto &s : spans_)
        if (s.name == name)
            total += s.endS - s.startS;
    return total;
}

double
SpanLog::counterTotal(const std::string &key) const
{
    double total = 0.0;
    for (const auto &s : spans_)
        for (const auto &[k, v] : s.counters)
            if (k == key)
                total += v;
    return total;
}

namespace
{

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
SpanLog::writeJson(std::ostream &os) const
{
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name << '"';
        os << ", \"item\": " << s.item << ", \"parent\": " << s.parent;
        os << ", \"start_s\": " << jsonNumber(s.startS);
        os << ", \"end_s\": " << jsonNumber(s.endS) << ", \"counters\": {";
        for (std::size_t c = 0; c < s.counters.size(); ++c) {
            const auto &[k, v] = s.counters[c];
            os << (c ? ", " : "") << '"' << k << "\": " << jsonNumber(v);
        }
        os << "}}";
    }
    os << "\n]}\n";
}

void
ForwardingController::onKernelLaunch(GpuTop &gpu)
{
    inner_.onKernelLaunch(gpu);
}

void
ForwardingController::onInvocationLaunch(GpuTop &gpu,
                                         const KernelInvocation &inv)
{
    inner_.onInvocationLaunch(gpu, inv);
}

void
ForwardingController::onSmCycle(GpuTop &gpu)
{
    const auto start = Clock::now();
    inner_.onSmCycle(gpu);
    seconds_ += secondsSince(start);
    ++calls_;
}

void
ForwardingController::onKernelComplete(GpuTop &gpu)
{
    inner_.onKernelComplete(gpu);
}

void
ForwardingController::visitControllerState(StateVisitor &v, GpuTop &gpu)
{
    inner_.visitControllerState(v, gpu);
}

Cycle
ForwardingController::nextActionCycle(const GpuTop &gpu, Cycle now) const
{
    return inner_.nextActionCycle(gpu, now);
}

void
CountingTraceSink::begin(const TraceHeader &header)
{
    const auto start = Clock::now();
    inner_.begin(header);
    bytes_ += sizeof(TraceHeader);
    seconds_ += secondsSince(start);
}

void
CountingTraceSink::events(const TraceEvent *e, std::size_t n)
{
    const auto start = Clock::now();
    inner_.events(e, n);
    events_ += n;
    bytes_ += n * sizeof(TraceEvent);
    seconds_ += secondsSince(start);
}

void
CountingTraceSink::finish()
{
    const auto start = Clock::now();
    inner_.finish();
    seconds_ += secondsSince(start);
}

} // namespace eqbench
