/**
 * @file
 * The four eqbench workloads (README.md): the Fig 7/8 roster, the same
 * runs through the parallel executor, the model-guided VF x CTA search,
 * and preemptive multi-device serving of a Poisson request stream.
 *
 * A workload's set-up (timed as setup_s) builds the state a pass runs
 * on. Each pass performs the same operations on the same inputs, so
 * every pass of one run must produce the same digests.
 */

#ifndef EQBENCH_WORKLOADS_HH
#define EQBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "serve/server.hh"
#include "spans.hh"

namespace eqbench
{

/** One operation of a pass: an application run, a sweep or a request. */
struct Op
{
    /// expected.json key this op's digest folds into at seed 0.
    std::string group;
    std::uint64_t digest = 0;
    bool ok = true; ///< the workload's own invariants held
};

/** Everything one pass produced. */
struct PassResult
{
    double wallS = 0.0;            ///< host seconds of the pass
    double simCycles = 0.0;        ///< simulated SM cycles the pass reports
    equalizer::Cycle ffCycles = 0; ///< of those, fast-forwarded
    std::vector<Op> ops;
    std::vector<equalizer::AppRunResult> runs;  ///< roster, parallel
    std::vector<equalizer::SweepResult> sweeps; ///< autotune
    equalizer::ServeReport serve;               ///< serve
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything the next pass needs: the part timed as setup_s. */
    virtual void setup() = 0;

    /**
     * Run one pass on the state setup() built. With @p log, record one
     * span per public call into the simulator (the traced pass).
     */
    virtual PassResult pass(SpanLog *log) = 0;

    /** Simulation threads of the workload (at most 2). */
    int threads() const { return threads_; }

    /**
     * Host seconds of one pass on the machine README.md reports, a
     * constant: a run of S seconds makes max(1, floor(S / this)) passes,
     * so the pass count never depends on the speed being measured.
     */
    double nominalPassSeconds() const { return nominalPassS_; }

  protected:
    Workload(int threads, double nominal_pass_s)
        : threads_(threads), nominalPassS_(nominal_pass_s)
    {
    }

  private:
    int threads_;
    double nominalPassS_;
};

/**
 * The named workload at @p seed. @p threads >= 0 overrides the thread
 * count of roster and parallel (parallel's threads=1 rerun); the other
 * workloads always run at threads=1. fatal() on an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, int threads = -1);

/** Kernels of the serve workload's request mix. */
const std::vector<std::string> &serveKernels();

/** Grid shrink factor of every serve request (ServeOptions default). */
inline constexpr double serveKernelScale = 0.25;

/** Requests in the serve workload's stream, a third per kernel. */
inline constexpr int serveRequests = 500;

} // namespace eqbench

#endif // EQBENCH_WORKLOADS_HH
