/**
 * @file
 * Test helper: run the first invocation of a zoo kernel under a policy
 * for a number of SM cycles and write the checkpoint taken there.
 *
 * Usage: checkpoint_bytes <kernel> <policy> <sm-cycles> <out-path>
 *                         [fast_path]
 *
 * checkpoint_bytes_test.cmake runs it twice per case and compares the
 * two files: the bytes of a checkpoint must not depend on the process
 * that wrote them (docs/SNAPSHOT.md), nor on whether SMs and L2
 * partitions slept (fast_path, 1 by default, as eqsim's knob;
 * docs/FAST_PATH.md).
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
    const std::string fast_path = argc == 6 ? argv[5] : "1";
    if ((argc != 5 && argc != 6) || (fast_path != "0" && fast_path != "1")) {
        std::cerr << "usage: checkpoint_bytes <kernel> <policy> "
                     "<sm-cycles> <out-path> [fast_path: 0 or 1]\n";
        return 2;
    }
    const KernelParams &params = KernelZoo::byName(argv[1]).params;
    const PolicySpec policy = policies::byName(argv[2]);
    const Cycle cycles = std::stoull(argv[3]);

    GpuConfig cfg = GpuConfig::gtx480();
    cfg.fastPath = fast_path == "1";
    GpuTop gpu(cfg, PowerConfig::gtx480());
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
