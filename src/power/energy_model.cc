#include "energy_model.hh"

#include <algorithm>

#include "common/log.hh"

namespace equalizer
{

PowerConfig
PowerConfig::gtx480()
{
    PowerConfig cfg;
    auto set = [&cfg](EnergyEvent e, double joules) {
        cfg.eventEnergy[static_cast<int>(e)] = joules;
    };
    // Per-event energies chosen so that a fully issue-bound kernel burns
    // ~45-50 W of SM dynamic power at 15 SMs x 2 issues x 700 MHz and a
    // bandwidth-bound kernel burns ~25-30 W in the DRAM (+ NoC/L2), which
    // matches the component shares GPUWattch reports for GTX480.
    set(EnergyEvent::SmIssue, 0.30e-9);
    set(EnergyEvent::SmAluOp, 1.10e-9);
    set(EnergyEvent::SmSfuOp, 2.20e-9);
    set(EnergyEvent::SmRegAccess, 0.50e-9);
    set(EnergyEvent::SmLsuOp, 0.60e-9);
    set(EnergyEvent::SmSharedAccess, 0.35e-9);
    set(EnergyEvent::L1Access, 0.40e-9);
    set(EnergyEvent::NocFlit, 0.40e-9);
    set(EnergyEvent::L2Access, 1.20e-9);
    set(EnergyEvent::DramActivate, 2.00e-9);
    set(EnergyEvent::DramAccess, 20.0e-9);
    // Leakage split: the paper's 41.9 W total baseline leakage, divided
    // between the SM domain and the memory-system domain.
    cfg.smLeakageWatts = 30.0;
    cfg.memLeakageWatts = 11.9;
    cfg.dramStandbyWatts = 15.0;
    cfg.dramStandbySlope = 1.5;
    return cfg;
}

const char *
energyEventName(EnergyEvent e)
{
    switch (e) {
      case EnergyEvent::SmIssue:
        return "sm_issue";
      case EnergyEvent::SmAluOp:
        return "sm_alu";
      case EnergyEvent::SmSfuOp:
        return "sm_sfu";
      case EnergyEvent::SmRegAccess:
        return "sm_reg";
      case EnergyEvent::SmLsuOp:
        return "sm_lsu";
      case EnergyEvent::SmSharedAccess:
        return "sm_shared";
      case EnergyEvent::L1Access:
        return "l1_access";
      case EnergyEvent::NocFlit:
        return "noc_flit";
      case EnergyEvent::L2Access:
        return "l2_access";
      case EnergyEvent::DramActivate:
        return "dram_activate";
      case EnergyEvent::DramAccess:
        return "dram_access";
      default:
        return "unknown";
    }
}

EnergyModel::EnergyModel(PowerConfig cfg) : cfg_(cfg)
{
}

void
EnergyModel::setDomainStates(VfState sm, VfState mem)
{
    smVsq_ = voltageScale(sm) * voltageScale(sm);
    memVsq_ = voltageScale(mem) * voltageScale(mem);
}

double
EnergyModel::dramStandbyWatts(VfState mem) const
{
    const double fscale = frequencyScale(mem);
    const double iscale = 1.0 + cfg_.dramStandbySlope * (fscale - 1.0);
    return cfg_.dramStandbyWatts * iscale * voltageScale(mem);
}

double
EnergyModel::leakageWatts(VfState sm, VfState mem) const
{
    return cfg_.smLeakageWatts * voltageScale(sm) +
           cfg_.memLeakageWatts * voltageScale(mem);
}

double
EnergyModel::staticJoules(
    const std::array<Tick, numVfStates> &sm_residency,
    const std::array<Tick, numVfStates> &mem_residency,
    double dram_power_down_fraction) const
{
    // Standby power drops to dramPowerDownFactor for the powered-down
    // share of the run.
    const double pd = std::clamp(dram_power_down_fraction, 0.0, 1.0);
    const double standby_scale =
        1.0 - pd * (1.0 - cfg_.dramPowerDownFactor);

    double joules = 0.0;
    for (int i = 0; i < numVfStates; ++i) {
        const auto s = static_cast<VfState>(i);
        const double sm_seconds = static_cast<double>(sm_residency[i]) /
                                  static_cast<double>(ticksPerSecond);
        const double mem_seconds = static_cast<double>(mem_residency[i]) /
                                   static_cast<double>(ticksPerSecond);
        joules += cfg_.smLeakageWatts * voltageScale(s) * sm_seconds;
        joules += cfg_.memLeakageWatts * voltageScale(s) * mem_seconds;
        joules += dramStandbyWatts(s) * mem_seconds * standby_scale;
    }
    return joules;
}

double
EnergyModel::dynamicJoules() const
{
    // Reduce shards in fixed (event, shared-then-SM) order so the total
    // is the same double however the events were spread over shards.
    double total = 0.0;
    for (int i = 0; i < numEnergyEvents; ++i)
        total += dynamicJoules(static_cast<EnergyEvent>(i));
    return total;
}

void
EnergyModel::reset()
{
    serial_ = Shard{};
    for (auto &s : smShards_)
        s = Shard{};
}

} // namespace equalizer
