#include "tenant.hh"

#include "common/log.hh"

namespace equalizer
{

PartitionPolicy
partitionPolicyFromName(const std::string &name)
{
    if (name == "rr")
        return PartitionPolicy::RoundRobin;
    if (name == "blocked")
        return PartitionPolicy::Blocked;
    fatal("unknown partition policy '", name,
          "'; use 'rr' (round-robin) or 'blocked'");
}

const char *
partitionPolicyName(PartitionPolicy policy)
{
    switch (policy) {
      case PartitionPolicy::RoundRobin:
        return "rr";
      case PartitionPolicy::Blocked:
        return "blocked";
    }
    return "?";
}

std::vector<std::string>
Tenant::queuedNames() const
{
    std::vector<std::string> names;
    names.reserve(queue_.size());
    for (const auto &p : queue_)
        names.push_back(p.name);
    return names;
}

void
Tenant::rebindQueue(const std::vector<const KernelLaunch *> &launches)
{
    for (auto &p : queue_) {
        if (p.launch)
            continue;
        for (const auto *k : launches) {
            if (k->info().name == p.name) {
                p.launch = k;
                break;
            }
        }
        if (!p.launch)
            fatal("tenant '", name(), "': no launch named '", p.name,
                  "' offered for the restored queue");
    }
}

void
Tenant::setGaugeNames(std::string dispatched, std::string debt,
                      std::string share)
{
    gaugeDispatched_ = std::move(dispatched);
    gaugeDebt_ = std::move(debt);
    gaugeShare_ = std::move(share);
}

void
Tenant::visitState(StateVisitor &v)
{
    v.beginSection("tenant", 1);
    v.field(id_);
    v.field(spec_.name);
    v.field(spec_.smLimit);
    v.field(sms_);
    v.field(tokens_);
    v.field(dispatchedBlocks_);
    v.field(busySmCycles_);
    v.field(limitedCycles_);
    v.field(elapsedCycles_);

    // The queue persists as names; launches re-bind on resume.
    std::vector<std::string> names = queuedNames();
    v.field(names);
    if (!v.saving()) {
        queue_.clear();
        for (auto &n : names)
            queue_.push_back({nullptr, std::move(n)});
    }
    v.endSection();
}

} // namespace equalizer
