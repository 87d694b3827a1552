/**
 * @file
 * Tests for the request-serving frontend (docs/SERVING.md): arrival
 * determinism and trace round-trips, the structural runtime predictor,
 * dispatcher-policy behaviour (fcfs order, sjf reordering, edf/llf
 * deadline ordering, predictor-gated preemptive eviction), predictive
 * admission control, multi-device sharding, the latency-percentile
 * math, and the sm_limit= knob boundary semantics.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu_top.hh"
#include "harness/co_run.hh"
#include "kernels/kernel_zoo.hh"
#include "serve/arrival.hh"
#include "serve/predictor.hh"
#include "serve/request.hh"
#include "serve/server.hh"

namespace equalizer
{
namespace
{

/** A small mixed-kernel Poisson spec used across the tests. */
ArrivalSpec
smallSpec()
{
    ArrivalSpec spec;
    spec.count = 40;
    spec.ratePerMcycle = 100.0;
    spec.seed = 42;
    spec.mix = {{"sgemm", 1}, {"bp-1", 0}};
    return spec;
}

bool
sameRequests(const std::vector<ServeRequest> &a,
             const std::vector<ServeRequest> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].kernel != b[i].kernel ||
            a[i].priority != b[i].priority ||
            a[i].arrivalCycle != b[i].arrivalCycle ||
            a[i].sloCycles != b[i].sloCycles)
            return false;
    return true;
}

// --- Arrival processes -------------------------------------------------

TEST(Arrival, PoissonScheduleIsAPureFunctionOfTheSpec)
{
    const auto a = generateArrivals(smallSpec());
    const auto b = generateArrivals(smallSpec());
    ASSERT_EQ(a.size(), 40u);
    EXPECT_TRUE(sameRequests(a, b));

    // Sorted by arrival, ids dense in arrival order, gaps >= 1 cycle.
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int>(i));
        if (i > 0) {
            EXPECT_GE(a[i].arrivalCycle, a[i - 1].arrivalCycle + 1);
        }
    }
    // The mix's priorities ride along with the picked kernel.
    for (const auto &r : a)
        EXPECT_EQ(r.priority, r.kernel == "sgemm" ? 1 : 0);
}

TEST(Arrival, DifferentSeedsGiveDifferentSchedules)
{
    ArrivalSpec other = smallSpec();
    other.seed = 43;
    EXPECT_FALSE(sameRequests(generateArrivals(smallSpec()),
                              generateArrivals(other)));
}

TEST(Arrival, TraceRoundTripPreservesEveryField)
{
    ArrivalSpec spec = smallSpec();
    spec.sloCycles = 123456;
    const auto a = generateArrivals(spec);
    const std::string path =
        ::testing::TempDir() + "eq_serve_trace_test.txt";
    writeRequestTrace(path, a);
    EXPECT_TRUE(sameRequests(a, readRequestTrace(path)));
}

TEST(ArrivalDeath, MalformedTraceLineIsFatal)
{
    const std::string path =
        ::testing::TempDir() + "eq_serve_bad_trace.txt";
    // Line 1 is writeRequestTrace()'s header comment.
    for (const char *bad :
         {"100 sgemm not-a-priority 0", "-5 sgemm 1 -70000 extra",
          "-5 sgemm 1 70000", "5 sgemm 1 -70000", "5 sgemm 1 70000 extra",
          "5x sgemm 1 70000", "5 sgemm 1 7e4", "5 sgemm 1"}) {
        writeRequestTrace(path, {});
        {
            std::ofstream os(path, std::ios::app);
            os << bad << "\n";
        }
        EXPECT_EXIT(readRequestTrace(path), ::testing::ExitedWithCode(1),
                    "request trace '.*eq_serve_bad_trace.txt' line 2")
            << bad;
    }
}

TEST(ArrivalDeath, EmptyMixAndBadRateAreFatal)
{
    EXPECT_EXIT(
        {
            ArrivalSpec spec;
            generateArrivals(spec);
        },
        ::testing::ExitedWithCode(1), "empty kernel mix");
    EXPECT_EXIT(
        {
            ArrivalSpec spec = smallSpec();
            spec.ratePerMcycle = 0.0;
            generateArrivals(spec);
        },
        ::testing::ExitedWithCode(1), "rate must be positive");
    EXPECT_EXIT(arrivalKindFromString("bursty"),
                ::testing::ExitedWithCode(1), "unknown arrival kind");
}

TEST(Arrival, MixEntryParsesNameAndOptionalPriority)
{
    const ArrivalMix plain = parseArrivalMix("sgemm");
    EXPECT_EQ(plain.kernel, "sgemm");
    EXPECT_EQ(plain.priority, 0);
    const ArrivalMix urgent = parseArrivalMix("bp-1:-2");
    EXPECT_EQ(urgent.kernel, "bp-1");
    EXPECT_EQ(urgent.priority, -2);
}

TEST(ArrivalDeath, MixEntryWithoutANumericPriorityIsFatal)
{
    EXPECT_EXIT(parseArrivalMix("sgemm:x"), ::testing::ExitedWithCode(1),
                "'sgemm:x' needs a whole-number priority");
    EXPECT_EXIT(parseArrivalMix("sgemm:"), ::testing::ExitedWithCode(1),
                "'sgemm:' needs a whole-number priority");
    EXPECT_EXIT(parseArrivalMix("sgemm:1x"), ::testing::ExitedWithCode(1),
                "whole-number priority");
}

TEST(Arrival, KindAndPolicyNamesRoundTrip)
{
    EXPECT_EQ(arrivalKindFromString(toString(ArrivalKind::Poisson)),
              ArrivalKind::Poisson);
    EXPECT_EQ(arrivalKindFromString(toString(ArrivalKind::Replay)),
              ArrivalKind::Replay);
    for (const ServePolicy p :
         {ServePolicy::Fcfs, ServePolicy::Sjf, ServePolicy::Edf,
          ServePolicy::Llf, ServePolicy::Preempt})
        EXPECT_EQ(servePolicyFromString(toString(p)), p);
    EXPECT_EXIT(servePolicyFromString("lifo"),
                ::testing::ExitedWithCode(1), "unknown serve policy");
    for (const AdmissionPolicy a :
         {AdmissionPolicy::None, AdmissionPolicy::Predictive})
        EXPECT_EQ(admissionPolicyFromString(toString(a)), a);
    EXPECT_EXIT(admissionPolicyFromString("oracle"),
                ::testing::ExitedWithCode(1),
                "unknown admission policy");
}

// --- Runtime predictor -------------------------------------------------

TEST(Predictor, PriorRefinedByEwmaOfObservations)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    RuntimePredictor p(15, 0.4);
    const Cycle prior = p.prior(params);
    ASSERT_GT(prior, 0u);
    // Unseen kernel: the prediction IS the prior (ratio 1.0).
    EXPECT_EQ(p.predict(params), prior);
    EXPECT_DOUBLE_EQ(p.ratio(params.name), 1.0);

    // The first observation seeds the ratio directly...
    p.observe(params, prior * 2);
    EXPECT_DOUBLE_EQ(p.ratio(params.name), 2.0);
    // ...and later ones fold in with weight alpha.
    p.observe(params, prior);
    EXPECT_DOUBLE_EQ(p.ratio(params.name), 0.4 * 1.0 + 0.6 * 2.0);
}

TEST(Predictor, BiggerGridsGetBiggerPriors)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    KernelParams bigger = params;
    bigger.totalBlocks *= 4;
    RuntimePredictor p(15);
    EXPECT_GT(p.prior(bigger), p.prior(params));
}

TEST(Predictor, LongBlockCriticalPathFloorsThePrior)
{
    // prtcl-2's single 25x block is a serial critical path: the prior
    // must be at least that chain, not just waves x work-per-wave.
    const KernelParams &prtcl = KernelZoo::byName("prtcl-2").params;
    RuntimePredictor p(15);
    const double chain = static_cast<double>(prtcl.warpsPerBlock) *
                         static_cast<double>(prtcl.instrsPerWarp) *
                         prtcl.longBlockFactor * 2.0;
    EXPECT_GE(p.prior(prtcl), static_cast<Cycle>(chain));
    // Balanced kernels are unaffected by the floor.
    KernelParams balanced = prtcl;
    balanced.longBlocks = 0;
    EXPECT_LT(p.prior(balanced), p.prior(prtcl));
}

TEST(Predictor, RemainingSaturatesAtZero)
{
    EXPECT_EQ(predictedRemaining(100, 40), 60u);
    EXPECT_EQ(predictedRemaining(100, 100), 0u);
    // Prediction overtaken by reality: remaining clamps to 0 instead
    // of wrapping — the request just ranks as "nearly done".
    EXPECT_EQ(predictedRemaining(100, 150), 0u);
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    RuntimePredictor p(15);
    EXPECT_EQ(p.remaining(params, p.predict(params) + 12345), 0u);
    EXPECT_GT(p.remaining(params, 0), 0u);
}

// --- Percentile math ---------------------------------------------------

TEST(Percentile, NearestRankInclusive)
{
    EXPECT_EQ(latencyPercentile({}, 99.0), 0u);
    EXPECT_EQ(latencyPercentile({7}, 50.0), 7u);
    std::vector<Cycle> ten;
    for (Cycle v = 10; v <= 100; v += 10)
        ten.push_back(v);
    EXPECT_EQ(latencyPercentile(ten, 50.0), 50u);
    EXPECT_EQ(latencyPercentile(ten, 95.0), 100u);
    EXPECT_EQ(latencyPercentile(ten, 99.0), 100u);
    EXPECT_EQ(latencyPercentile(ten, 100.0), 100u);
    // 101 samples: p99 is the 2nd-worst, not the max.
    std::vector<Cycle> many;
    for (Cycle v = 1; v <= 101; ++v)
        many.push_back(v * 10);
    EXPECT_EQ(latencyPercentile(many, 99.0), 1000u);
}

TEST(Percentile, EdgeRanksAndBoundaries)
{
    // The extremes map to min and max, for any sample size.
    EXPECT_EQ(latencyPercentile({42}, 0.0), 42u);
    EXPECT_EQ(latencyPercentile({42}, 100.0), 42u);
    const std::vector<Cycle> four = {10, 20, 30, 40};
    EXPECT_EQ(latencyPercentile(four, 0.0), 10u);
    EXPECT_EQ(latencyPercentile(four, 100.0), 40u);
    // Exact-rank boundaries: nearest-rank is inclusive, so a pct that
    // lands exactly on rank k picks the k-th smallest, and one cycle
    // past it moves to the next.
    EXPECT_EQ(latencyPercentile(four, 25.0), 10u);
    EXPECT_EQ(latencyPercentile(four, 25.1), 20u);
    EXPECT_EQ(latencyPercentile(four, 50.0), 20u);
    EXPECT_EQ(latencyPercentile(four, 75.0), 30u);
    EXPECT_EQ(latencyPercentile(four, 75.1), 40u);
    // The input need not be pre-sorted.
    EXPECT_EQ(latencyPercentile({40, 10, 30, 20}, 50.0), 20u);
}

// --- Kernel scaling ----------------------------------------------------

TEST(ScaleKernel, ShrinksWithFloorsAndDropsTheSchedule)
{
    const KernelParams &params = KernelZoo::byName("sgemm").params;
    const KernelParams scaled = scaleKernelParams(params, 0.25);
    EXPECT_LT(scaled.totalBlocks, params.totalBlocks);
    EXPECT_GE(scaled.totalBlocks, 1);
    EXPECT_GE(scaled.instrsPerWarp, 32);
    EXPECT_LE(scaled.longBlocks, scaled.totalBlocks);
    EXPECT_EQ(scaled.invocationCount(), 1);

    // scale >= 1 keeps the grid; tiny scales hit the floors.
    EXPECT_EQ(scaleKernelParams(params, 1.0).totalBlocks,
              params.totalBlocks);
    EXPECT_GE(scaleKernelParams(params, 1e-9).totalBlocks, 1);
    EXPECT_EXIT(scaleKernelParams(params, 0.0),
                ::testing::ExitedWithCode(1), "scale must be positive");
}

/**
 * Regression: scale >= 1 used to return the params untouched, leaking
 * the application's multi-invocation schedule (and an unclamped
 * longBlocks) into what serve() treats as a single-grid request. The
 * schedule must be dropped at EVERY scale.
 */
TEST(ScaleKernel, FullScaleStillDropsTheInvocationSchedule)
{
    const KernelParams &params = KernelZoo::byName("bfs-2").params;
    ASSERT_GT(params.invocationCount(), 1); // the bug needs a schedule
    const KernelParams scaled = scaleKernelParams(params, 1.0);
    EXPECT_EQ(scaled.invocationCount(), 1);
    EXPECT_EQ(scaled.totalBlocks, params.totalBlocks);
    EXPECT_LE(scaled.longBlocks, scaled.totalBlocks);
}

/**
 * And end to end: a request served at serve_scale=1.0 executes exactly
 * the kernel's nominal grid — the same cycles a direct run of the
 * schedule-stripped params takes, not invocation 0 of the original
 * schedule (bfs-2's invocation 0 is scaled to 0.4 of the grid, so the
 * pre-fix behaviour is cycles-distinguishable).
 */
TEST(ScaleKernel, FullScaleServeMatchesTheNominalGrid)
{
    KernelParams stripped = KernelZoo::byName("bfs-2").params;
    stripped.invocations.clear();
    GpuTop reference;
    const SyntheticKernel nominal(stripped, 0);
    const RunMetrics direct = reference.runKernel(nominal);

    std::vector<ServeRequest> reqs(1);
    reqs[0] = {0, "bfs-2", 0, 0, 0};
    GpuTop gpu;
    ServeOptions opts;
    opts.kernelScale = 1.0;
    RequestServer server(gpu, opts);
    const ServeReport rep = server.serve(reqs);
    ASSERT_EQ(rep.summary.completed, 1);
    EXPECT_EQ(rep.records[0].executedCycles, direct.smCycles);
    EXPECT_EQ(rep.records[0].instructions, direct.instructions);
}

// --- Dispatcher policies ----------------------------------------------

/** Serve @p requests under @p policy on a fresh device. */
ServeReport
serveUnder(ServePolicy policy, const std::vector<ServeRequest> &requests,
           AdmissionPolicy admission = AdmissionPolicy::None)
{
    GpuTop gpu;
    ServeOptions opts;
    opts.policy = policy;
    opts.admission = admission;
    opts.kernelScale = 0.25;
    RequestServer server(gpu, opts);
    return server.serve(requests);
}

/** One long low-priority request, then two short urgent ones. */
std::vector<ServeRequest>
longThenShorts()
{
    std::vector<ServeRequest> reqs(3);
    reqs[0] = {0, "prtcl-2", 0, 0, 0};
    reqs[1] = {1, "sgemm", 1, 1000, 0};
    reqs[2] = {2, "sgemm", 1, 1500, 0};
    return reqs;
}

TEST(ServePolicyBehaviour, FcfsRunsInArrivalOrder)
{
    const ServeReport rep = serveUnder(ServePolicy::Fcfs,
                                       longThenShorts());
    ASSERT_EQ(rep.summary.completed, 3);
    EXPECT_EQ(rep.summary.preemptions, 0);
    // Head-of-line blocking: each start waits out the previous finish.
    EXPECT_GE(rep.records[1].startCycle, rep.records[0].completeCycle);
    EXPECT_GE(rep.records[2].startCycle, rep.records[1].completeCycle);
}

TEST(ServePolicyBehaviour, SjfPicksThePredictedShortFirst)
{
    // While the first long runs, a second long (earlier) and a short
    // (later) queue up; sjf serves the short first, fcfs would not.
    std::vector<ServeRequest> reqs(3);
    reqs[0] = {0, "prtcl-2", 0, 0, 0};
    reqs[1] = {1, "prtcl-2", 0, 1000, 0};
    reqs[2] = {2, "sgemm", 0, 1500, 0};
    const ServeReport rep = serveUnder(ServePolicy::Sjf, reqs);
    ASSERT_EQ(rep.summary.completed, 3);
    EXPECT_EQ(rep.summary.preemptions, 0); // non-preemptive
    EXPECT_LT(rep.records[2].startCycle, rep.records[1].startCycle);
}

TEST(ServePolicyBehaviour, PreemptEvictsTheRunningLong)
{
    const ServeReport rep = serveUnder(ServePolicy::Preempt,
                                       longThenShorts());
    ASSERT_EQ(rep.summary.completed, 3);
    EXPECT_GE(rep.records[0].preemptions, 1);
    EXPECT_GE(rep.summary.preemptions, 1);
    // The urgent shorts finish before the evicted long does.
    EXPECT_LT(rep.records[1].completeCycle, rep.records[0].completeCycle);
    EXPECT_LT(rep.records[2].completeCycle, rep.records[0].completeCycle);
    // The wall clock was charged the modeled save/restore costs.
    ServeOptions defaults;
    EXPECT_GE(rep.summary.wallCycles,
              rep.summary.executedCycles +
                  static_cast<Cycle>(rep.summary.preemptions) *
                      (defaults.preemptSaveCycles +
                       defaults.preemptRestoreCycles));
}

TEST(ServePolicyBehaviour, PreemptionDeclinesWhenTheVictimIsNearlyDone)
{
    // A higher priority alone no longer evicts: the victim is the same
    // kernel as the challenger, so its predicted remaining can never
    // exceed the challenger's full service plus the save/restore round
    // trip — shelving would only add cost.
    std::vector<ServeRequest> reqs(2);
    reqs[0] = {0, "sgemm", 0, 0, 0};
    reqs[1] = {1, "sgemm", 5, 100, 0}; // more urgent, same length
    const ServeReport rep = serveUnder(ServePolicy::Preempt, reqs);
    ASSERT_EQ(rep.summary.completed, 2);
    EXPECT_EQ(rep.summary.preemptions, 0);
    EXPECT_GE(rep.records[1].startCycle, rep.records[0].completeCycle);
}

/**
 * Regression: an evicted request used to be pushed to the queue TAIL,
 * so it lost every later tie-break to requests admitted after it.
 * Here the evicted long A and a queued long B tie on priority once
 * the urgent short finishes; admission order says A resumes first.
 */
TEST(ServePolicyBehaviour, EvictedRequestKeepsItsAdmissionRank)
{
    std::vector<ServeRequest> reqs(3);
    reqs[0] = {0, "prtcl-2", 0, 0, 0};    // running, then evicted
    reqs[1] = {1, "prtcl-2", 0, 1000, 0}; // queued behind it
    reqs[2] = {2, "sgemm", 1, 1500, 0};   // the urgent evictor
    const ServeReport rep = serveUnder(ServePolicy::Preempt, reqs);
    ASSERT_EQ(rep.summary.completed, 3);
    ASSERT_GE(rep.records[0].preemptions, 1);
    // A resumes (and finishes) before B ever starts.
    EXPECT_GE(rep.records[1].startCycle, rep.records[0].completeCycle);
    EXPECT_LT(rep.records[0].completeCycle, rep.records[1].completeCycle);
}

TEST(ServePolicyBehaviour, EdfPicksTheEarliestDeadlineFirst)
{
    // While the long runs, an earlier deadline-free request and a
    // later deadline-carrying one queue up: edf serves the deadline
    // first and orders deadline-free requests last; fcfs would not.
    std::vector<ServeRequest> reqs(3);
    reqs[0] = {0, "prtcl-2", 0, 0, 0};
    reqs[1] = {1, "sgemm", 0, 1000, 0};      // no deadline
    reqs[2] = {2, "sgemm", 0, 1500, 500000}; // deadline 501500
    const ServeReport rep = serveUnder(ServePolicy::Edf, reqs);
    ASSERT_EQ(rep.summary.completed, 3);
    EXPECT_EQ(rep.summary.preemptions, 0); // non-preemptive
    EXPECT_LT(rep.records[2].startCycle, rep.records[1].startCycle);
}

TEST(ServePolicyBehaviour, EdfBreaksEqualDeadlinesByAdmission)
{
    // Identical (arrival + slo) sums: edf degenerates to admission
    // order, so the tie-break must be first-admitted.
    std::vector<ServeRequest> reqs(3);
    reqs[0] = {0, "prtcl-2", 0, 0, 0};
    reqs[1] = {1, "sgemm", 0, 1000, 70000}; // deadline 71000
    reqs[2] = {2, "sgemm", 0, 1200, 69800}; // deadline 71000 too
    const ServeReport rep = serveUnder(ServePolicy::Edf, reqs);
    ASSERT_EQ(rep.summary.completed, 3);
    EXPECT_LT(rep.records[1].startCycle, rep.records[2].startCycle);
}

TEST(ServePolicyBehaviour, LlfWeighsRemainingServiceIntoUrgency)
{
    // The sgemm's deadline is EARLIER, but the prtcl-2's predicted
    // service is so much longer that its laxity is smaller: edf and
    // llf disagree on exactly this pair.
    std::vector<ServeRequest> reqs(3);
    reqs[0] = {0, "prtcl-2", 0, 0, 0};
    reqs[1] = {1, "sgemm", 0, 1000, 200000};   // deadline 201000
    reqs[2] = {2, "prtcl-2", 0, 1100, 210000}; // deadline 211100
    const ServeReport edf = serveUnder(ServePolicy::Edf, reqs);
    ASSERT_EQ(edf.summary.completed, 3);
    EXPECT_LT(edf.records[1].startCycle, edf.records[2].startCycle);
    const ServeReport llf = serveUnder(ServePolicy::Llf, reqs);
    ASSERT_EQ(llf.summary.completed, 3);
    EXPECT_LT(llf.records[2].startCycle, llf.records[1].startCycle);
}

TEST(ServePolicyBehaviour, PredictiveAdmissionRejectsDoomedRequests)
{
    // The sgemm arrives behind a long-running prtcl-2 with a deadline
    // the predicted backlog already busts: predictive admission turns
    // it away at arrival (counted, not silently dropped); admission=
    // none serves it late instead.
    std::vector<ServeRequest> reqs(2);
    reqs[0] = {0, "prtcl-2", 0, 0, 0};
    reqs[1] = {1, "sgemm", 0, 1000, 5000}; // deadline 6000: hopeless
    const ServeReport rejecting =
        serveUnder(ServePolicy::Fcfs, reqs, AdmissionPolicy::Predictive);
    EXPECT_EQ(rejecting.summary.completed, 1);
    EXPECT_EQ(rejecting.summary.rejected, 1);
    EXPECT_NEAR(rejecting.summary.rejectionRate, 0.5, 1e-12);
    EXPECT_EQ(rejecting.summary.sloViolations, 0);
    EXPECT_TRUE(rejecting.records[1].rejected);
    EXPECT_FALSE(rejecting.records[1].completed);
    EXPECT_EQ(rejecting.records[1].executedCycles, 0u);

    const ServeReport admitting = serveUnder(ServePolicy::Fcfs, reqs);
    EXPECT_EQ(admitting.summary.completed, 2);
    EXPECT_EQ(admitting.summary.rejected, 0);
    EXPECT_TRUE(admitting.records[1].sloViolated);
}

TEST(ServePolicyBehaviour, AdmissionNeverRejectsDeadlineFreeRequests)
{
    std::vector<ServeRequest> reqs = longThenShorts(); // all slo = 0
    const ServeReport rep =
        serveUnder(ServePolicy::Fcfs, reqs, AdmissionPolicy::Predictive);
    EXPECT_EQ(rep.summary.completed, 3);
    EXPECT_EQ(rep.summary.rejected, 0);
}

TEST(ServePolicyBehaviour, SloViolationsAreCounted)
{
    std::vector<ServeRequest> reqs = longThenShorts();
    reqs[1].sloCycles = 1; // impossible deadline
    const ServeReport rep = serveUnder(ServePolicy::Fcfs, reqs);
    ASSERT_EQ(rep.summary.completed, 3);
    EXPECT_TRUE(rep.records[1].sloViolated);
    EXPECT_EQ(rep.summary.sloViolations, 1);
    EXPECT_NEAR(rep.summary.sloViolationRate, 1.0 / 3.0, 1e-12);
}

/**
 * Pinned simulated work of a fixed 24-request Poisson burst over a
 * mixed short/long kernel set: served preemptively without deadlines,
 * and under edf with a uniform 70k-cycle SLO to order by. Quantum
 * stepping, checkpoint shelves and dispatch all feed the executed-cycle
 * sums, so a change to either number is a change to the model.
 */
TEST(ServePinnedCycles, PoissonBurstExecutesThePinnedCycles)
{
    ArrivalSpec spec;
    spec.count = 24;
    spec.ratePerMcycle = 120.0;
    spec.seed = 7;
    spec.mix = {{"sgemm", 1}, {"bp-1", 0}, {"prtcl-2", 0}};
    const ServeReport preempt =
        serveUnder(ServePolicy::Preempt, generateArrivals(spec));
    EXPECT_EQ(preempt.summary.completed, 24);
    EXPECT_EQ(preempt.summary.executedCycles, 440269u);

    spec.sloCycles = 70'000;
    const ServeReport edf =
        serveUnder(ServePolicy::Edf, generateArrivals(spec));
    EXPECT_EQ(edf.summary.completed, 24);
    EXPECT_EQ(edf.summary.executedCycles, 440001u);
}

TEST(ServeDeath, BusyOrPartitionedDevicesAreRejected)
{
    EXPECT_EXIT(
        {
            GpuTop gpu;
            gpu.configureTenants({{"a", 0.5}, {"b", 0.5}},
                                 PartitionPolicy::RoundRobin);
            RequestServer server(gpu, ServeOptions{});
        },
        ::testing::ExitedWithCode(1), "partitioned into tenants");
    EXPECT_EXIT(
        {
            GpuTop gpu;
            ServeOptions opts;
            opts.quantumCycles = 0;
            RequestServer server(gpu, opts);
        },
        ::testing::ExitedWithCode(1), "quantum must be positive");
}

// --- Multi-device serving ---------------------------------------------

/**
 * Serve @p requests across @p devices forked devices (device 0 cold,
 * the rest warm forks of it — the same construction eqsim uses).
 */
ServeReport
serveAcross(int devices, ServePolicy policy,
            const std::vector<ServeRequest> &requests,
            AdmissionPolicy admission = AdmissionPolicy::None)
{
    std::vector<std::unique_ptr<GpuTop>> gpus;
    std::vector<GpuTop *> ptrs;
    for (int d = 0; d < devices; ++d) {
        gpus.push_back(std::make_unique<GpuTop>());
        if (d > 0)
            gpus.back()->forkFrom(*gpus.front());
        ptrs.push_back(gpus.back().get());
    }
    ServeOptions opts;
    opts.policy = policy;
    opts.admission = admission;
    opts.kernelScale = 0.25;
    RequestServer server(ptrs, opts);
    return server.serve(requests);
}

/** A burst of close arrivals that one device can only serialize. */
std::vector<ServeRequest>
burstOfEight()
{
    std::vector<ServeRequest> reqs(8);
    for (int i = 0; i < 8; ++i)
        reqs[i] = {i, i % 2 == 0 ? "sgemm" : "bp-1", 0,
                   static_cast<Cycle>(100 * i), 0};
    return reqs;
}

TEST(MultiDeviceServe, ShardsTheQueueAcrossBothDevices)
{
    const ServeReport rep =
        serveAcross(2, ServePolicy::Fcfs, burstOfEight());
    ASSERT_EQ(rep.summary.completed, 8);
    EXPECT_EQ(rep.summary.devices, 2);
    ASSERT_EQ(rep.deviceStats.size(), 2u);
    EXPECT_GT(rep.deviceStats[0].completed, 0);
    EXPECT_GT(rep.deviceStats[1].completed, 0);
    EXPECT_EQ(rep.deviceStats[0].completed + rep.deviceStats[1].completed,
              8);
    Cycle executed = 0;
    for (const auto &rec : rep.records) {
        EXPECT_TRUE(rec.device == 0 || rec.device == 1);
        executed += rec.executedCycles;
    }
    EXPECT_EQ(rep.deviceStats[0].executedCycles +
                  rep.deviceStats[1].executedCycles,
              executed);
}

TEST(MultiDeviceServe, TwoDevicesBeatOneOnWallClock)
{
    const ServeReport one =
        serveAcross(1, ServePolicy::Fcfs, burstOfEight());
    const ServeReport two =
        serveAcross(2, ServePolicy::Fcfs, burstOfEight());
    ASSERT_EQ(one.summary.completed, 8);
    ASSERT_EQ(two.summary.completed, 8);
    EXPECT_LT(two.summary.wallCycles, one.summary.wallCycles);
    EXPECT_GT(two.summary.throughputPerMcycle,
              one.summary.throughputPerMcycle);
}

TEST(MultiDeviceServeDeath, MismatchedOrRepeatedDevicesAreFatal)
{
    EXPECT_EXIT(
        {
            GpuTop gpu;
            RequestServer server({&gpu, &gpu}, ServeOptions{});
        },
        ::testing::ExitedWithCode(1), "repeats device");
    EXPECT_EXIT(
        {
            GpuConfig small = GpuConfig::gtx480();
            small.numSms = 4;
            GpuTop a;
            GpuTop b(small, PowerConfig::gtx480());
            RequestServer server({&a, &b}, ServeOptions{});
        },
        ::testing::ExitedWithCode(1), "identically sized");
    EXPECT_EXIT(RequestServer({}, ServeOptions{}),
                ::testing::ExitedWithCode(1), "at least one device");
}

// --- Whole-report pins over the committed replay ----------------------

/** One serve configuration and the summary it must reproduce. */
struct PinnedReportCase
{
    ServePolicy policy;
    AdmissionPolicy admission;
    int devices;
    int completed;
    int rejected;
    int preemptions;
    Cycle wallCycles;
    Cycle executedCycles;
    Cycle p50;
    Cycle p95;
    Cycle p99;
};

// Keeps the listed test name free of pointer bytes (see table2_test.cc).
void
PrintTo(const PinnedReportCase &c, std::ostream *os)
{
    *os << toString(c.policy) << " admission=" << toString(c.admission)
        << " devices=" << c.devices;
}

class ServePinnedReport : public ::testing::TestWithParam<PinnedReportCase>
{
};

/**
 * The first 40 requests of the committed 200-request replay: enough
 * for preempt to evict, for predictive llf admission to reject and for
 * devices=2 to shard, small enough to run in a couple of seconds.
 */
std::vector<ServeRequest>
replayPrefix()
{
    std::vector<ServeRequest> reqs = readRequestTrace(
        std::string(EQ_TEST_DATA_DIR) + "/serve_requests_200.txt");
    reqs.resize(40);
    return reqs;
}

/**
 * Every summary number of a whole serve() run, pinned per dispatcher,
 * admission and device count: admission, dispatch order, eviction and
 * quantum stepping all feed these, so a change to any is a change to
 * the serving model.
 */
TEST_P(ServePinnedReport, SummaryMatchesThePins)
{
    const PinnedReportCase &c = GetParam();
    const ServeSummary s =
        serveAcross(c.devices, c.policy, replayPrefix(), c.admission)
            .summary;
    EXPECT_EQ(s.requests, 40);
    EXPECT_EQ(s.completed, c.completed);
    EXPECT_EQ(s.rejected, c.rejected);
    EXPECT_EQ(s.preemptions, c.preemptions);
    EXPECT_EQ(s.wallCycles, c.wallCycles);
    EXPECT_EQ(s.executedCycles, c.executedCycles);
    EXPECT_EQ(s.p50Latency, c.p50);
    EXPECT_EQ(s.p95Latency, c.p95);
    EXPECT_EQ(s.p99Latency, c.p99);
}

constexpr AdmissionPolicy kNone = AdmissionPolicy::None;

INSTANTIATE_TEST_SUITE_P(
    Replay40, ServePinnedReport,
    ::testing::Values(
        // policy, admission, devices, completed, rejected, preemptions,
        // wall, executed, p50, p95, p99
        PinnedReportCase{ServePolicy::Fcfs, kNone, 1, 40, 0, 0, 1134830,
                         1002841, 98331, 197574, 235884},
        PinnedReportCase{ServePolicy::Sjf, kNone, 1, 40, 0, 0, 1135211,
                         1003222, 50791, 212214, 251003},
        PinnedReportCase{ServePolicy::Preempt, kNone, 1, 40, 0, 8, 1143622,
                         1003441, 72784, 203761, 242695},
        PinnedReportCase{ServePolicy::Edf, kNone, 1, 40, 0, 0, 1134830,
                         1002841, 98331, 197574, 235884},
        PinnedReportCase{ServePolicy::Llf, kNone, 1, 40, 0, 0, 1135578,
                         1003589, 108399, 226287, 277480},
        PinnedReportCase{ServePolicy::Llf, AdmissionPolicy::Predictive, 1,
                         25, 15, 0, 1063798, 132260, 3834, 7490, 8083},
        PinnedReportCase{ServePolicy::Preempt, kNone, 2, 40, 0, 7, 1068803,
                         1003604, 7310, 85281, 97156},
        PinnedReportCase{ServePolicy::Edf, kNone, 2, 40, 0, 0, 1068896,
                         1004015, 23583, 84333, 97072}),
    [](const ::testing::TestParamInfo<PinnedReportCase> &i) {
        std::string name = toString(i.param.policy);
        if (i.param.admission != AdmissionPolicy::None)
            name += std::string("_") + toString(i.param.admission);
        if (i.param.devices > 1)
            name += "_d" + std::to_string(i.param.devices);
        return name;
    });

// --- sm_limit= knob boundaries (docs/MULTI_TENANT.md) ------------------

TEST(SmLimitKnob, BoundaryValuesAreExplicit)
{
    EXPECT_DOUBLE_EQ(parseSmLimitKnob("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(parseSmLimitKnob("1"), 1.0);
    // Above the whole partition: clamped to unlimited, not fatal.
    EXPECT_DOUBLE_EQ(parseSmLimitKnob("1.5"), 1.0);
}

TEST(SmLimitKnobDeath, ZeroNegativeAndGarbageAreFatal)
{
    EXPECT_EXIT(parseSmLimitKnob("0"), ::testing::ExitedWithCode(1),
                "sm_limit=0 would starve the tenant");
    EXPECT_EXIT(parseSmLimitKnob("0.0"), ::testing::ExitedWithCode(1),
                "starve");
    EXPECT_EXIT(parseSmLimitKnob("-0.25"), ::testing::ExitedWithCode(1),
                "negative");
    EXPECT_EXIT(parseSmLimitKnob("half"), ::testing::ExitedWithCode(1),
                "not a number");
    EXPECT_EXIT(parseSmLimitKnob("0.5x"), ::testing::ExitedWithCode(1),
                "not a number");
}

} // namespace
} // namespace equalizer
