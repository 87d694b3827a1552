/**
 * @file
 * Shared plumbing for the figure/table reproduction benches.
 */

#ifndef EQ_BENCH_BENCH_UTIL_HH
#define EQ_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/policies.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "kernels/kernel_zoo.hh"

namespace equalizer::bench
{

/** Categories in the paper's figure order. */
inline const std::vector<KernelCategory> &
categoryOrder()
{
    static const std::vector<KernelCategory> order = {
        KernelCategory::Compute,
        KernelCategory::Memory,
        KernelCategory::Cache,
        KernelCategory::Unsaturated,
    };
    return order;
}

/** All 27 kernel names grouped by category, figure order. */
inline std::vector<std::string>
kernelsInFigureOrder()
{
    std::vector<std::string> names;
    for (auto c : categoryOrder())
        for (const auto &n : KernelZoo::namesInCategory(c))
            names.push_back(n);
    return names;
}

/** Per-category collection of values for geomean rows. */
class CategoryAggregator
{
  public:
    void
    add(KernelCategory c, double value)
    {
        values_[c].push_back(value);
        all_.push_back(value);
    }

    double
    categoryGeomean(KernelCategory c) const
    {
        auto it = values_.find(c);
        return it == values_.end() ? 1.0 : geomean(it->second);
    }

    double overallGeomean() const { return geomean(all_); }

  private:
    std::map<KernelCategory, std::vector<double>> values_;
    std::vector<double> all_;
};

/** Progress line on stderr so long benches are watchable. */
inline void
progress(const std::string &what)
{
    std::cerr << "[bench] " << what << '\n';
}

} // namespace equalizer::bench

#endif // EQ_BENCH_BENCH_UTIL_HH
