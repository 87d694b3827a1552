/**
 * @file
 * Named monotone counters: the bookkeeping a sweep hands back in
 * SweepResult::stats (sweep.points, sweep.forks, ...). Deliberately
 * simple: no formulas, no hierarchy beyond dotted names.
 */

#ifndef EQ_COMMON_STATS_HH
#define EQ_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace equalizer
{

/** Owner of named counters; each sweep call fills its own. */
class StatRegistry
{
  public:
    /** Get or create a counter with the given dotted name. */
    std::uint64_t &
    counter(const std::string &name)
    {
        return counters_[name];
    }

    /** Look up a counter's value; 0 when absent. */
    std::uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
};

} // namespace equalizer

#endif // EQ_COMMON_STATS_HH
