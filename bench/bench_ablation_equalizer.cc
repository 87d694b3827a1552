/**
 * @file
 * Ablation study of Equalizer's design constants (beyond the paper's
 * figures): epoch length (the paper picked 4096 cycles after a
 * sensitivity study), block-change hysteresis (3 consecutive epochs),
 * and the bandwidth-saturation threshold (2 X_mem warps).
 *
 * Run on one kernel per category in performance mode; reported as
 * speedup over the stock GPU.
 */

#include "bench_util.hh"

using namespace equalizer;
using namespace equalizer::bench;

namespace
{

const std::vector<std::string> &
representatives()
{
    static const std::vector<std::string> r = {"mri-q", "lbm", "kmn",
                                               "sc"};
    return r;
}

PolicySpec
variant(const std::string &name, EqualizerConfig cfg)
{
    return PolicySpec{name, [cfg] {
                          return std::make_unique<EqualizerEngine>(cfg);
                      }};
}

} // namespace

int
main()
{
    ExperimentRunner runner;

    banner("Ablation: epoch length (speedup over baseline, perf mode)");
    {
        TablePrinter t({"kernel", "epoch=1024", "epoch=2048",
                        "epoch=4096 (paper)", "epoch=8192"});
        for (const auto &name : representatives()) {
            const auto &entry = KernelZoo::byName(name);
            const auto base =
                runner.run(entry.params, policies::baseline());
            std::vector<std::string> row = {name};
            for (Cycle epoch : {1024u, 2048u, 4096u, 8192u}) {
                progress("ablation epoch " + name + " " +
                         std::to_string(epoch));
                EqualizerConfig cfg;
                cfg.mode = EqualizerMode::Performance;
                cfg.epochCycles = epoch;
                const auto r = runner.run(
                    entry.params,
                    variant("eq-epoch-" + std::to_string(epoch), cfg));
                row.push_back(fmt(speedupOver(base.total, r.total), 3));
            }
            t.row(row);
        }
        t.print();
    }

    banner("Ablation: block-change hysteresis");
    {
        TablePrinter t({"kernel", "hyst=1", "hyst=3 (paper)", "hyst=6"});
        for (const auto &name : representatives()) {
            const auto &entry = KernelZoo::byName(name);
            const auto base =
                runner.run(entry.params, policies::baseline());
            std::vector<std::string> row = {name};
            for (int h : {1, 3, 6}) {
                progress("ablation hyst " + name + " " +
                         std::to_string(h));
                EqualizerConfig cfg;
                cfg.mode = EqualizerMode::Performance;
                cfg.hysteresis = h;
                const auto r = runner.run(
                    entry.params,
                    variant("eq-hyst-" + std::to_string(h), cfg));
                row.push_back(fmt(speedupOver(base.total, r.total), 3));
            }
            t.row(row);
        }
        t.print();
    }

    banner("Ablation: X_mem bandwidth-saturation threshold");
    {
        TablePrinter t({"kernel", "thresh=1", "thresh=2 (paper)",
                        "thresh=4"});
        for (const auto &name : representatives()) {
            const auto &entry = KernelZoo::byName(name);
            const auto base =
                runner.run(entry.params, policies::baseline());
            std::vector<std::string> row = {name};
            for (int th : {1, 2, 4}) {
                progress("ablation thresh " + name + " " +
                         std::to_string(th));
                EqualizerConfig cfg;
                cfg.mode = EqualizerMode::Performance;
                cfg.memSaturationThreshold = th;
                // A distinct name per variant: run() caches on it.
                const auto r = runner.run(
                    entry.params,
                    variant("eq-thresh-" + std::to_string(th), cfg));
                row.push_back(fmt(speedupOver(base.total, r.total), 3));
            }
            t.row(row);
        }
        t.print();
    }

    std::cout << "\nExpectation: results are stable around the paper's "
                 "constants; very short epochs chase noise, hysteresis=1 "
                 "oscillates on cache kernels, and a high saturation "
                 "threshold stops detecting memory pressure.\n";
    return 0;
}
