/**
 * @file
 * Test helper: run the first invocation of a zoo kernel under a policy
 * for a number of SM cycles and write the checkpoint taken there.
 *
 * Usage: checkpoint_bytes <kernel> <policy> <sm-cycles> <out-path>
 *
 * checkpoint_bytes_test.cmake runs it twice per case and compares the
 * two files: the bytes of a checkpoint must not depend on the process
 * that wrote them (docs/SNAPSHOT.md).
 */

#include <iostream>
#include <string>

#include "gpu/gpu_top.hh"
#include "gpu/scheduler_core.hh"
#include "harness/policies.hh"
#include "kernels/kernel_zoo.hh"
#include "kernels/synthetic_kernel.hh"

int
main(int argc, char **argv)
{
    using namespace equalizer;
    if (argc != 5) {
        std::cerr << "usage: checkpoint_bytes <kernel> <policy> "
                     "<sm-cycles> <out-path>\n";
        return 2;
    }
    const KernelParams &params = KernelZoo::byName(argv[1]).params;
    const PolicySpec policy = policies::byName(argv[2]);
    const Cycle cycles = std::stoull(argv[3]);

    GpuTop gpu(GpuConfig::gtx480(), PowerConfig::gtx480());
    const auto controller = policy.build();
    gpu.setController(controller.get());
    SyntheticKernel launch(params, 0);
    SchedulerCore core(gpu);
    core.launchKernel(launch);
    if (core.step(cycles) != StepStatus::Running) {
        std::cerr << params.name << " drained before SM cycle " << cycles
                  << "\n";
        return 1;
    }
    gpu.saveCheckpoint(argv[4]);
    return 0;
}
