/**
 * @file
 * Open-loop arrival processes for the serving frontend: a Poisson
 * generator (deterministic splitmix64 stream, so a fixed seed gives a
 * byte-identical request schedule on every host)
 * and a plain-text trace format for replaying a committed schedule.
 */

#ifndef EQ_SERVE_ARRIVAL_HH
#define EQ_SERVE_ARRIVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hh"

namespace equalizer
{

/** How request arrivals are produced. */
enum class ArrivalKind
{
    Poisson, ///< open-loop Poisson process over a kernel mix
    Replay,  ///< replay a request trace file verbatim
};

const char *toString(ArrivalKind kind);

/** Parse "poisson" / "replay"; fatal() on anything else. */
ArrivalKind arrivalKindFromString(const std::string &name);

/** One kernel of the Poisson mix (picked uniformly per request). */
struct ArrivalMix
{
    std::string kernel;
    int priority = 0;
};

/**
 * Parse one "name[:priority]" mix entry (priority defaults to 0).
 * fatal() when the priority is missing or not a whole number.
 */
ArrivalMix parseArrivalMix(const std::string &item);

/** Everything that defines an arrival schedule. */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::Poisson;
    int count = 32;              ///< requests to generate (Poisson)
    double ratePerMcycle = 20.0; ///< mean arrivals per 1e6 wall cycles
    std::uint64_t seed = 1;
    std::vector<ArrivalMix> mix; ///< Poisson kernel mix (non-empty)
    Cycle sloCycles = 0;         ///< deadline stamped on every request
    std::string replayPath;      ///< trace file (Replay)
};

/**
 * Produce the request schedule for @p spec, sorted by arrival with ids
 * dense in arrival order. Pure function of the spec.
 */
std::vector<ServeRequest> generateArrivals(const ArrivalSpec &spec);

/**
 * Read a request trace: '#' comment lines, then one request per line
 * as "arrival_cycle kernel priority slo_cycles". fatal() on a
 * missing, extra or non-numeric field and on a negative cycle count.
 */
std::vector<ServeRequest> readRequestTrace(const std::string &path);

/** Write @p requests in the readRequestTrace() format. */
void writeRequestTrace(const std::string &path,
                       const std::vector<ServeRequest> &requests);

} // namespace equalizer

#endif // EQ_SERVE_ARRIVAL_HH
