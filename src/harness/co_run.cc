#include "co_run.hh"

#include <memory>

#include "common/log.hh"
#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"

namespace equalizer
{

double
parseSmLimitKnob(const std::string &text)
{
    double v = 0.0;
    std::size_t used = 0;
    try {
        v = std::stod(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size())
        fatal("sm_limit entry '", text, "' is not a number");
    if (v == 0.0)
        fatal("sm_limit=0 would starve the tenant: the token bucket "
              "pays sm_limit x |SMs| tokens per cycle, so 0 never "
              "dispatches a block; use a share in (0, 1], or omit the "
              "entry for unlimited");
    if (v < 0.0)
        fatal("sm_limit entry '", text, "' is negative; use a share "
              "in (0, 1]");
    if (v > 1.0) {
        warn("sm_limit=", text, " exceeds 1.0 (the whole partition); "
             "clamping to 1.0 = unlimited");
        v = 1.0;
    }
    return v;
}

CoRunResult
runCoRun(GpuTop &gpu, const std::vector<CoRunTenant> &tenants,
         const CoRunOptions &opts)
{
    if (tenants.empty())
        fatal("runCoRun: no tenants");

    std::vector<TenantSpec> specs;
    for (const auto &t : tenants)
        specs.push_back({t.name, t.smLimit});
    gpu.configureTenants(specs, opts.partition);

    // Each tenant runs its kernel's invocation 0. The launches must
    // outlive the run; invocation objects keep only non-owning pointers.
    std::vector<std::unique_ptr<SyntheticKernel>> launches;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const auto &entry = KernelZoo::byName(tenants[i].kernel);
        launches.push_back(
            std::make_unique<SyntheticKernel>(entry.params, 0));
        gpu.enqueueKernel(static_cast<int>(i), *launches.back());
    }

    CoRunResult result;
    result.combined = gpu.runTenants(opts.maxSmCycles);

    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const Tenant &t = gpu.tenant(static_cast<int>(i));
        TenantRunMetrics row;
        row.tenant = t.name();
        row.kernels = tenants[i].kernel;
        row.smLimit = t.smLimit();
        row.smCount = static_cast<int>(t.smSet().size());
        row.dispatchedBlocks = t.dispatchedBlocks();
        row.busySmCycles = t.busySmCycles();
        row.limitedCycles = t.limitedCycles();
        row.elapsedCycles = t.elapsedCycles();
        for (const auto &inv : gpu.invocations()) {
            if (inv.tenantId() != static_cast<int>(i))
                continue;
            row.blocksCompleted += inv.blocksCompleted();
            row.instructions += inv.instructions();
        }
        result.tenants.push_back(std::move(row));
    }

    // Back to the classic whole-device configuration.
    gpu.configureTenants({});
    return result;
}

} // namespace equalizer
