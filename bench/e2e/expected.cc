#include "expected.hh"

#include <cstdio>
#include <fstream>
#include <type_traits>
#include <vector>

#include "common/log.hh"
#include "sim/state.hh"

namespace eqbench
{

using namespace equalizer;

namespace
{

/** Field-by-field byte image of the values being digested. */
class DigestBuffer
{
  public:
    template <typename T>
    void
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
        bytes_.insert(bytes_.end(), p, p + sizeof(T));
    }

    void
    add(const std::string &s)
    {
        add<std::uint64_t>(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    std::uint64_t value() const { return fnv1a(bytes_.data(), bytes_.size()); }

  private:
    std::vector<std::uint8_t> bytes_;
};

void
addMetrics(DigestBuffer &d, const RunMetrics &m)
{
    d.add(m.kernel);
    d.add(m.seconds);
    d.add(m.smCycles);
    d.add(m.memCycles);
    d.add(m.instructions);
    d.add(m.dynamicJoules);
    d.add(m.staticJoules);
    const WarpStateCounts &w = m.outcomeTotals;
    d.add(w.active);
    d.add(w.waiting);
    d.add(w.issued);
    d.add(w.excessAlu);
    d.add(w.excessMem);
    d.add(w.barrier);
    d.add(w.unaccounted);
    d.add(m.outcomeCycles);
    d.add(m.l1Hits);
    d.add(m.l1Misses);
    d.add(m.l2Hits);
    d.add(m.l2Misses);
    d.add(m.dramAccesses);
    d.add(m.dramRowHits);
    d.add(m.dramPowerDownFraction);
    d.add(m.smResidency);
    d.add(m.memResidency);
}

void
addRun(DigestBuffer &d, const AppRunResult &r)
{
    d.add(r.kernel);
    d.add(r.policy);
    addMetrics(d, r.total);
    d.add<std::uint64_t>(r.invocations.size());
    for (const RunMetrics &m : r.invocations)
        addMetrics(d, m);
}

} // namespace

std::uint64_t
digestRun(const AppRunResult &r)
{
    DigestBuffer d;
    addRun(d, r);
    return d.value();
}

std::uint64_t
digestSweep(const SweepResult &s)
{
    DigestBuffer d;
    for (const SweepPointRow &row : s.table) {
        d.add(row.id);
        d.add(row.policy);
        d.add(static_cast<int>(row.smVf));
        d.add(static_cast<int>(row.memVf));
        d.add(row.cta);
        d.add(row.predictedSeconds);
        d.add(row.predictedCycles);
        d.add(row.predictedJoules);
        d.add(row.measuredSeconds);
        d.add(row.measuredCycles);
        d.add(row.measuredJoules);
        d.add(row.simulated);
    }
    d.add(s.bestPerf);
    d.add(s.bestEnergy);
    d.add(s.fitErrorSeconds);
    d.add(s.fitErrorJoules);
    for (const AppRunResult &p : s.points)
        addRun(d, p);
    return d.value();
}

std::uint64_t
digestRequest(const RequestRecord &r)
{
    DigestBuffer d;
    d.add(r.req.id);
    d.add(r.req.kernel);
    d.add(r.req.priority);
    d.add(r.req.arrivalCycle);
    d.add(r.req.sloCycles);
    d.add(r.completed);
    d.add(r.sloViolated);
    d.add(r.rejected);
    d.add(r.preemptions);
    d.add(r.device);
    d.add(r.startCycle);
    d.add(r.completeCycle);
    d.add(r.latencyCycles);
    d.add(r.executedCycles);
    d.add(r.instructions);
    return d.value();
}

std::uint64_t
foldDigest(std::uint64_t acc, std::uint64_t next)
{
    DigestBuffer d;
    d.add(acc);
    d.add(next);
    return d.value();
}

std::string
hexDigest(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::map<std::string, std::string>
readExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open expected outputs '", path, "'");
    std::map<std::string, std::string> out;
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
        if (line == "{" || line == "}")
            continue;
        char key[128];
        char value[128];
        const char *format = " \"%127[^\"]\": \"%127[^\"]\"";
        if (std::sscanf(line.c_str(), format, key, value) != 2) {
            fatal(path, ":", n, ": expected one \"key\": \"value\" entry ",
                  "per line, as writeExpected() writes them");
        }
        if (!out.emplace(key, value).second)
            fatal(path, ":", n, ": duplicate key '", key, "'");
    }
    return out;
}

void
writeExpected(const std::string &path,
              const std::map<std::string, std::string> &entries)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write expected outputs '", path, "'");
    out << "{";
    bool first = true;
    for (const auto &[key, value] : entries) {
        out << (first ? "\n  " : ",\n  ");
        out << '"' << key << "\": \"" << value << '"';
        first = false;
    }
    out << "\n}\n";
}

} // namespace eqbench
