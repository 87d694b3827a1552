/**
 * @file
 * Multi-tenant co-run harness: builds zoo kernels for several tenants,
 * drives GpuTop's tenant API and attributes the results per tenant
 * (docs/MULTI_TENANT.md).
 */

#ifndef EQ_HARNESS_CO_RUN_HH
#define EQ_HARNESS_CO_RUN_HH

#include <string>
#include <vector>

#include "gpu/gpu_top.hh"
#include "gpu/tenant.hh"

namespace equalizer
{

/** One tenant of a co-run, at the knob level. */
struct CoRunTenant
{
    std::string kernel; ///< zoo kernel name
    double smLimit = 1.0;
    std::string name; ///< tenant label; "" derives "t<i>"
};

/** Co-run options beyond the per-tenant specs. */
struct CoRunOptions
{
    PartitionPolicy partition = PartitionPolicy::RoundRobin;
    Cycle maxSmCycles = 2'000'000'000ULL;
};

/** A finished co-run: combined device metrics plus per-tenant rows. */
struct CoRunResult
{
    RunMetrics combined;
    std::vector<TenantRunMetrics> tenants;
};

/**
 * Partition @p gpu across @p tenants, run every queued invocation to
 * completion and attribute the results. The GPU is returned to the
 * implicit single-tenant configuration afterwards.
 */
CoRunResult runCoRun(GpuTop &gpu, const std::vector<CoRunTenant> &tenants,
                     const CoRunOptions &opts = {});

/**
 * Parse and validate one sm_limit= knob entry. The token bucket pays
 * sm_limit x |SMs| tokens per cycle, so the boundary values need
 * explicit treatment at the knob level rather than silent misbehaviour
 * in the limiter: 0 would never dispatch a block (fatal with an
 * explanation), negatives are rejected, and shares above 1.0 are
 * clamped to 1.0 (= unlimited) with a warning.
 */
double parseSmLimitKnob(const std::string &text);

} // namespace equalizer

#endif // EQ_HARNESS_CO_RUN_HH
