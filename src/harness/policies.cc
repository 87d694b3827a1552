#include "policies.hh"

#include <charconv>

#include "baselines/ccws.hh"
#include "baselines/dyncta.hh"
#include "baselines/static_policy.hh"
#include "common/log.hh"

namespace equalizer
{

namespace policies
{

PolicySpec
baseline()
{
    return PolicySpec{"baseline", nullptr};
}

PolicySpec
smHigh()
{
    return PolicySpec{"sm-high", [] {
                          return std::make_unique<StaticPolicy>(
                              "sm-high", VfState::High, VfState::Normal);
                      }};
}

PolicySpec
smLow()
{
    return PolicySpec{"sm-low", [] {
                          return std::make_unique<StaticPolicy>(
                              "sm-low", VfState::Low, VfState::Normal);
                      }};
}

PolicySpec
memHigh()
{
    return PolicySpec{"mem-high", [] {
                          return std::make_unique<StaticPolicy>(
                              "mem-high", VfState::Normal, VfState::High);
                      }};
}

PolicySpec
memLow()
{
    return PolicySpec{"mem-low", [] {
                          return std::make_unique<StaticPolicy>(
                              "mem-low", VfState::Normal, VfState::Low);
                      }};
}

PolicySpec
staticBlocks(int blocks)
{
    const std::string name = "blocks-" + std::to_string(blocks);
    return PolicySpec{name, [name, blocks] {
                          return std::make_unique<StaticPolicy>(
                              name, VfState::Normal, VfState::Normal,
                              blocks);
                      }};
}

PolicySpec
operatingPoint(VfState sm_vf, VfState mem_vf, int blocks)
{
    const std::string name = std::string("sm-") + vfStateName(sm_vf) +
                             "-mem-" + vfStateName(mem_vf) + "-cta-" +
                             std::to_string(blocks);
    return PolicySpec{name, [name, sm_vf, mem_vf, blocks] {
                          return std::make_unique<StaticPolicy>(
                              name, sm_vf, mem_vf, blocks);
                      }};
}

PolicySpec
equalizer(EqualizerMode mode, EqualizerConfig cfg)
{
    cfg.mode = mode;
    const std::string name = mode == EqualizerMode::Energy
                                 ? "equalizer-energy"
                                 : "equalizer-perf";
    return PolicySpec{name, [cfg] {
                          return std::make_unique<EqualizerEngine>(cfg);
                      }};
}

PolicySpec
dynCta()
{
    return PolicySpec{"dyncta",
                      [] { return std::make_unique<DynCta>(); }};
}

PolicySpec
ccws()
{
    return PolicySpec{"ccws", [] { return std::make_unique<Ccws>(); }};
}

PolicySpec
byName(const std::string &name, const EqualizerConfig &ecfg)
{
    if (name == "baseline")
        return baseline();
    if (name == "sm-high")
        return smHigh();
    if (name == "sm-low")
        return smLow();
    if (name == "mem-high")
        return memHigh();
    if (name == "mem-low")
        return memLow();
    if (name == "equalizer-perf")
        return equalizer(EqualizerMode::Performance, ecfg);
    if (name == "equalizer-energy")
        return equalizer(EqualizerMode::Energy, ecfg);
    if (name == "dyncta")
        return dynCta();
    if (name == "ccws")
        return ccws();
    if (name.rfind("blocks-", 0) == 0) {
        const char *first = name.data() + 7;
        const char *last = name.data() + name.size();
        int blocks = 0;
        const auto [end, ec] = std::from_chars(first, last, blocks);
        if (ec != std::errc() || end != last)
            fatal("policy '", name, "' needs a whole block count, as in "
                  "blocks-2");
        return staticBlocks(blocks);
    }
    fatal("unknown policy '", name, "'");
}

} // namespace policies

} // namespace equalizer
