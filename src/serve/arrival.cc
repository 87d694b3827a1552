#include "serve/arrival.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/log.hh"

namespace equalizer
{

namespace
{

/** splitmix64: tiny, seedable, identical everywhere. */
std::uint64_t
nextRand(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Uniform in (0, 1]: never 0, so -log() below is finite. */
double
u01(std::uint64_t &state)
{
    return (static_cast<double>(nextRand(state) >> 11) + 1.0) * 0x1.0p-53;
}

/**
 * All of @p text as a whole number: no sign on unsigned types, no
 * leading '+', no trailing characters.
 */
template <typename T>
bool
parseWhole(const std::string &text, T &out)
{
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, out);
    return ec == std::errc() && end == last;
}

} // namespace

const char *
toString(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Replay:
        return "replay";
    }
    return "unknown";
}

ArrivalKind
arrivalKindFromString(const std::string &name)
{
    if (name == "poisson")
        return ArrivalKind::Poisson;
    if (name == "replay")
        return ArrivalKind::Replay;
    fatal("unknown arrival kind '", name, "' (poisson, replay)");
}

ArrivalMix
parseArrivalMix(const std::string &item)
{
    ArrivalMix mix;
    const std::size_t colon = item.find(':');
    mix.kernel = item.substr(0, colon);
    if (colon != std::string::npos &&
        !parseWhole(item.substr(colon + 1), mix.priority))
        fatal("kernel mix entry '", item, "' needs a whole-number "
              "priority after ':', as in sgemm:1");
    return mix;
}

std::vector<ServeRequest>
generateArrivals(const ArrivalSpec &spec)
{
    if (spec.kind == ArrivalKind::Replay)
        return readRequestTrace(spec.replayPath);

    if (spec.mix.empty())
        fatal("generateArrivals: empty kernel mix");
    if (spec.ratePerMcycle <= 0.0)
        fatal("generateArrivals: rate must be positive, got ",
              spec.ratePerMcycle);

    std::uint64_t state = spec.seed;
    std::vector<ServeRequest> out;
    Cycle wall = 0;
    for (int i = 0; i < spec.count; ++i) {
        // Exponential inter-arrival gap, floored at one cycle so the
        // schedule is strictly ordered.
        const double gap_cycles =
            -std::log(u01(state)) * 1e6 / spec.ratePerMcycle;
        wall += std::max<Cycle>(1, static_cast<Cycle>(std::llround(
                                       std::min(gap_cycles, 1e15))));
        const auto &mix =
            spec.mix[static_cast<std::size_t>(nextRand(state) %
                                              spec.mix.size())];
        ServeRequest r;
        r.id = i;
        r.kernel = mix.kernel;
        r.priority = mix.priority;
        r.arrivalCycle = wall;
        r.sloCycles = spec.sloCycles;
        out.push_back(std::move(r));
    }
    return out;
}

std::vector<ServeRequest>
readRequestTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open request trace '", path, "'");
    std::vector<ServeRequest> out;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::vector<std::string> fields;
        for (std::string field; is >> field;)
            fields.push_back(std::move(field));
        ServeRequest r;
        if (fields.size() != 4 || !parseWhole(fields[0], r.arrivalCycle) ||
            !parseWhole(fields[2], r.priority) ||
            !parseWhole(fields[3], r.sloCycles))
            fatal("request trace '", path, "' line ", lineno,
                  ": expected 'arrival_cycle kernel priority "
                  "slo_cycles' (cycles whole and non-negative), got '",
                  line, "'");
        r.kernel = fields[1];
        r.id = static_cast<int>(out.size());
        out.push_back(std::move(r));
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ServeRequest &a, const ServeRequest &b) {
                         return a.arrivalCycle < b.arrivalCycle;
                     });
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].id = static_cast<int>(i);
    return out;
}

void
writeRequestTrace(const std::string &path,
                  const std::vector<ServeRequest> &requests)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write request trace '", path, "'");
    os << "# arrival_cycle kernel priority slo_cycles\n";
    for (const auto &r : requests)
        os << r.arrivalCycle << ' ' << r.kernel << ' ' << r.priority
           << ' ' << r.sloCycles << '\n';
}

} // namespace equalizer
