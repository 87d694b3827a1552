/**
 * @file
 * Event-based energy accounting with DVFS scaling, in the spirit of
 * GPUWattch/McPAT plus the Hynix GDDR5 datasheet's standby currents.
 *
 * Dynamic energy: every microarchitectural event (a warp instruction
 * issued, an L1 access, a DRAM line transfer, ...) deposits a fixed
 * per-event energy scaled by the square of the owning clock domain's
 * relative supply voltage at the moment of the event (E ~ C V^2).
 *
 * Static energy: leakage power scales linearly with voltage (the paper's
 * assumption) and is integrated over per-VF-state residency after the
 * run. DRAM active-standby power additionally grows with the memory
 * frequency state, modelling the 30%-higher idle standby current of
 * GDDR5 at higher data rates.
 */

#ifndef EQ_POWER_ENERGY_MODEL_HH
#define EQ_POWER_ENERGY_MODEL_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/state.hh"
#include "sim/vf.hh"

namespace equalizer
{

/** Kinds of dynamic-energy events components may report. */
enum class EnergyEvent
{
    // SM-domain events
    SmIssue,      ///< a warp instruction issued (fetch/decode/schedule)
    SmAluOp,      ///< a 32-lane arithmetic warp operation executed
    SmSfuOp,      ///< a special-function warp operation executed
    SmRegAccess,  ///< an operand-collector register-file access
    SmLsuOp,      ///< LSU processing of one warp memory instruction
    SmSharedAccess, ///< a shared-memory (scratchpad) access
    L1Access,     ///< an L1 data-cache tag+data access
    // Memory-domain events
    NocFlit,      ///< one interconnect flit transferred
    L2Access,     ///< an L2 tag+data access
    DramActivate, ///< a DRAM row activate+precharge pair
    DramAccess,   ///< a 128 B DRAM read or write burst
    NumEvents,
};

/** Number of distinct EnergyEvent kinds. */
inline constexpr int numEnergyEvents =
    static_cast<int>(EnergyEvent::NumEvents);

/** Which clock domain an event's energy scales with. */
enum class PowerDomain
{
    Sm,
    Memory,
};

/** Static characterization of the modelled GPU's power. */
struct PowerConfig
{
    /// Per-event dynamic energies at nominal voltage, in joules.
    std::array<double, numEnergyEvents> eventEnergy{};

    /// SM-domain leakage power at nominal voltage, watts.
    double smLeakageWatts = 30.0;

    /// Memory-domain (NoC+L2+MC) leakage power at nominal voltage, watts.
    double memLeakageWatts = 11.9;

    /// DRAM active-standby power at the Normal memory state, watts.
    double dramStandbyWatts = 12.0;

    /**
     * Sensitivity of DRAM standby current to the frequency state:
     * standby ~ (1 + k * (fscale - 1)) * Vscale. k = 1.5 reproduces a
     * roughly 30% idle-current delta over a +/-15% window-and-a-half, in
     * line with the Hynix GDDR5 operating points.
     */
    double dramStandbySlope = 1.5;

    /**
     * Fraction of active-standby power still drawn while a DRAM
     * partition interface is powered down (MemScale-style low-power
     * state).
     */
    double dramPowerDownFactor = 0.45;

    /** GTX480-flavoured defaults (GPUWattch-calibrated shares). */
    static PowerConfig gtx480();
};

/** Map an event kind to its owning power domain. */
constexpr PowerDomain
eventDomain(EnergyEvent e)
{
    switch (e) {
      case EnergyEvent::NocFlit:
      case EnergyEvent::L2Access:
      case EnergyEvent::DramActivate:
      case EnergyEvent::DramAccess:
        return PowerDomain::Memory;
      default:
        return PowerDomain::Sm;
    }
}

/** Human-readable event name (for reports). */
const char *energyEventName(EnergyEvent e);

/**
 * Accumulates a run's energy online.
 *
 * The GPU top-level updates the domain states when the frequency manager
 * commits a change; components report events as they happen.
 *
 * Accounting is sharded: components that belong to one SM record into
 * that SM's shard (via the record overloads taking an SM id), while
 * memory-system components and standalone users record into a shared
 * shard. Every query reduces the shards in fixed index order, so the
 * reported joules are the same doubles whichever order the SMs ticked
 * in or slept.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(PowerConfig cfg = PowerConfig::gtx480());

    /** Inform the model of the current VF state of both domains. */
    void setDomainStates(VfState sm, VfState mem);

    /**
     * Guarantee per-SM shards [0, n) exist. Components owned by an SM
     * call this at construction; must not race with recording.
     */
    void
    ensureSmShards(int n)
    {
        if (static_cast<int>(smShards_.size()) < n)
            smShards_.resize(static_cast<std::size_t>(n));
    }

    /** Deposit @p count events of kind @p e at the current voltage. */
    void
    record(EnergyEvent e, std::uint64_t count = 1)
    {
        deposit(serial_, e, static_cast<double>(count), count);
    }

    /** Deposit events into the shard of SM @p sm. */
    void
    record(int sm, EnergyEvent e, std::uint64_t count = 1)
    {
        deposit(smShards_[static_cast<std::size_t>(sm)], e,
                static_cast<double>(count), count);
    }

    /**
     * Deposit @p n events into the shared shard as n separate
     * single-event deposits, like recordRepeated(sm, e, n) below. A
     * sleeping L2 partition replays its blocked read-miss retries with
     * this.
     */
    void
    recordRepeated(EnergyEvent e, std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            deposit(serial_, e, 1.0, 1);
    }

    /**
     * Deposit @p n events into the shard of SM @p sm as n separate
     * single-event deposits.
     *
     * record(sm, e, n) folds the count into one scaled floating-point
     * add, which is not bit-identical to n individual adds. A sleeping
     * SM replays its per-cycle blocked L1 retries with this so a slept
     * span accumulates exactly the joules the slow path would
     * (docs/FAST_PATH.md).
     */
    void
    recordRepeated(int sm, EnergyEvent e, std::uint64_t n)
    {
        auto &shard = smShards_[static_cast<std::size_t>(sm)];
        for (std::uint64_t i = 0; i < n; ++i)
            deposit(shard, e, 1.0, 1);
    }

    /**
     * Deposit one event whose energy is scaled (e.g. a divergent warp
     * op that only drives a fraction of the datapath lanes). Counted as
     * a single event.
     */
    void
    recordScaled(EnergyEvent e, double energy_scale)
    {
        deposit(serial_, e, energy_scale, 1);
    }

    /** recordScaled into the shard of SM @p sm. */
    void
    recordScaled(int sm, EnergyEvent e, double energy_scale)
    {
        deposit(smShards_[static_cast<std::size_t>(sm)], e, energy_scale,
                1);
    }

    /**
     * Static (leakage + DRAM standby) energy in joules, integrated over
     * the given per-state residencies.
     *
     * @param sm_residency Ticks spent by the SM domain in each VfState.
     * @param mem_residency Ticks spent by the memory domain per VfState.
     * @param dram_power_down_fraction Fraction of total DRAM
     *        partition-time spent in the powered-down state; that share
     *        of the standby power is scaled by dramPowerDownFactor.
     */
    double staticJoules(const std::array<Tick, numVfStates> &sm_residency,
                        const std::array<Tick, numVfStates> &mem_residency,
                        double dram_power_down_fraction = 0.0) const;

    /** Total dynamic energy so far, joules. */
    double dynamicJoules() const;

    /** Dynamic energy of a single event class, joules. */
    double
    dynamicJoules(EnergyEvent e) const
    {
        const int i = static_cast<int>(e);
        double total = serial_.joules[i];
        for (const auto &s : smShards_)
            total += s.joules[i];
        return total;
    }

    /** Count of recorded events of one kind. */
    std::uint64_t
    eventCount(EnergyEvent e) const
    {
        const int i = static_cast<int>(e);
        std::uint64_t total = serial_.counts[i];
        for (const auto &s : smShards_)
            total += s.counts[i];
        return total;
    }

    /** DRAM standby power (watts) at a given memory-domain state. */
    double dramStandbyWatts(VfState mem) const;

    /** Leakage power (watts) of both domains at given states. */
    double leakageWatts(VfState sm, VfState mem) const;

    const PowerConfig &config() const { return cfg_; }

    /** Zero all accumulated energy and counts. */
    void reset();

    /**
     * Serialize voltage state and every shard. Shards are cache-line
     * aligned, so their arrays are written individually rather than as
     * raw struct bytes (the alignment padding stays out of the stream).
     */
    void
    visitState(StateVisitor &v)
    {
        v.beginSection("energy", 1);
        v.field(smVsq_);
        v.field(memVsq_);
        visitShard(v, serial_);
        std::uint64_t n = smShards_.size();
        v.field(n);
        if (!v.saving())
            smShards_.resize(static_cast<std::size_t>(n));
        for (auto &s : smShards_)
            visitShard(v, s);
        v.endSection();
    }

  private:
    /** One accumulator. */
    struct Shard
    {
        std::array<double, numEnergyEvents> joules{};
        std::array<std::uint64_t, numEnergyEvents> counts{};
    };

    static void
    visitShard(StateVisitor &v, Shard &shard)
    {
        v.field(shard.joules);
        v.field(shard.counts);
    }

    void
    deposit(Shard &shard, EnergyEvent e, double scale, std::uint64_t n)
    {
        const int i = static_cast<int>(e);
        shard.joules[i] +=
            scale * cfg_.eventEnergy[i] *
            (eventDomain(e) == PowerDomain::Sm ? smVsq_ : memVsq_);
        shard.counts[i] += n;
    }

    PowerConfig cfg_;
    double smVsq_ = 1.0;
    double memVsq_ = 1.0;
    Shard serial_;
    std::vector<Shard> smShards_;
};

} // namespace equalizer

#endif // EQ_POWER_ENERGY_MODEL_HH
