/**
 * @file
 * The benchmark's three workloads, each one "op": a simulation run to
 * completion on a freshly built rig, with its outputs checked.
 *
 *   soc_frames     execution-driven full SoC (case study I point):
 *                  loads the graphics front end (core).
 *   mem_replay     a seeded synthetic GPU memory trace replayed through
 *                  SocTop under BAS, DCB, DTB and HMC with the NPU
 *                  camera stream on: loads cache/noc/mem/soc/npu with
 *                  no shader or raster work.
 *   gpgpu_kernels  standalone GPU running vecadd, divergent SAXPY, the
 *                  shared-memory reduction and a seeded gather: loads
 *                  the SIMT cores (gpu).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "layer_profile.hh"
#include "synth_trace.hh"

namespace perfbench
{

enum class Workload
{
    SocFrames,
    MemReplay,
    GpgpuKernels,
};

/** Parse "soc_frames" / "mem_replay" / "gpgpu_kernels". */
std::optional<Workload> workloadFromName(const std::string &name);

struct OpOptions
{
    Workload workload = Workload::SocFrames;
    std::uint64_t seed = 1;
    /**
     * mem_replay: the trace to replay (from writeReplayTrace); required.
     * It is written in its own step so the op's process never holds the
     * generator's buffers.
     */
    std::string traceDir;
    /** Small inputs that run in seconds (tests, smoke checks). */
    bool smoke = false;
    /** Chain a LayerProfile in front of the kernel's instrument. */
    bool traced = false;
    /** Enable Simulation::enableDeterminismCheck() on every rig. */
    bool hash = false;
};

struct OpResult
{
    /** False when a rig hit its limit or an output check failed. */
    bool ok = true;
    std::string error;

    /**
     * Host seconds of constructing the rig the op runs, summed over
     * mem_replay's four rigs.
     */
    double setupS = 0.0;
    /** Host seconds of the simulation phase. */
    double wallS = 0.0;
    /** Simulated GPU-clock cycles, summed over the op's rigs. */
    std::uint64_t gpuCycles = 0;
    std::uint64_t events = 0;
    /** Determinism hashes folded over the op's rigs (0 if off). */
    std::uint64_t eventHash = 0;

    /**
     * Checked simulated outputs (frame times, kernel cycles, ...):
     * a host-only change must leave them bit-identical.
     */
    std::map<std::string, double> outputs;
    /** Per-layer counters read from the live stats trees. */
    std::map<std::string, double> layerStats;

    /** @{ Traced runs only. */
    LayerTotals layers;
    std::vector<Span> spans;
    std::map<std::string, Layer> eventNames;
    /** @} */
};

/** Write mem_replay's synthetic trace for @p seed into @p dir. */
SynthTraceSummary writeReplayTrace(const std::string &dir,
                                   std::uint64_t seed, bool smoke);

/** Run one op of @p opts.workload. */
OpResult runOp(const OpOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
