#include "workloads.hh"

#include <chrono>
#include <cstdio>
#include <memory>

#include "core/shader_builder.hh"
#include "mem/traffic_trace.hh"
#include "scenes/shaders.hh"
#include "sim/random.hh"
#include "sim/simulation_builder.hh"
#include "soc/configs.hh"
#include "soc/replay.hh"
#include "soc/soc_top.hh"
#include "synth_trace.hh"

namespace perfbench
{

using namespace emerald;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Every rig gets an explicit builder: no key is left at a default. */
SimulationBuilder
builderFor(const OpOptions &opts)
{
    SimulationBuilder builder;
    builder.checkDeterminism(opts.hash);
    return builder;
}

void
fail(OpResult &result, const std::string &why)
{
    if (result.ok)
        result.error = why;
    result.ok = false;
}

/**
 * Add the live stats tree's layer counters into @p raw. Keys are the
 * benchmark's own; rigs of one op (mem_replay's four configs) sum.
 */
void
accumulateStats(const Simulation &sim, unsigned schedulers_per_core,
                std::map<std::string, double> &raw)
{
    sim.statsRoot().flattenStats([&raw, schedulers_per_core](
                                     const std::string &name, double value) {
        std::size_t dot = name.rfind('.');
        if (dot == std::string::npos)
            return;
        std::string owner = name.substr(0, dot);
        std::string stat = name.substr(dot + 1);
        // Distributions flatten to <stat>.<component>, so their leaf
        // is the distribution's name.
        std::size_t dot2 = owner.rfind('.');
        std::string leaf =
            dot2 == std::string::npos ? owner : owner.substr(dot2 + 1);
        std::string parent =
            dot2 == std::string::npos ? "" : owner.substr(0, dot2);
        auto add = [&raw](const std::string &key, double v) {
            raw[key] += v;
        };

        if (owner == "sim.pool") {
            if (stat == "heap_allocs")
                add("sim.heap_allocs", value);
            if (stat == "live_high_water" &&
                value > raw["sim.live_high_water"])
                raw["sim.live_high_water"] = value;
            return;
        }
        if (owner == "gfx") {
            for (const char *s : {"raster_tiles", "hiz_rejects",
                                  "fragments", "frag_warps"})
                if (stat == s)
                    add(std::string("core.") + s, value);
            return;
        }
        if (isCacheSegment(leaf)) {
            for (const char *s :
                 {"hits", "misses", "rejects", "mshr_merges"})
                if (stat == s)
                    add(std::string("cache.all.") + s, value);
            bool gpu = owner.compare(0, 4, "gpu.") == 0;
            if (gpu && (stat == "hits" || stat == "misses") &&
                (leaf == "l1d" || leaf == "l1t" || leaf == "l1z" ||
                 leaf == "l2"))
                add("cache." + leaf + "." + stat, value);
            return;
        }
        if (isNocSegment(leaf)) {
            if (stat == "packets" || stat == "retries")
                add("noc." + stat, value);
            return;
        }
        if (owner.compare(0, 4, "gpu.") == 0 && parent == "gpu" &&
            leaf.compare(0, 2, "sc") == 0) {
            for (const char *s : {"warp_instrs", "cycles_active",
                                  "stall_no_ready_warp", "lsu_stalls"})
                if (stat == s)
                    add(std::string("gpu.") + s, value);
            // Each warp scheduler has one issue slot per active cycle.
            if (stat == "cycles_active")
                add("gpu.issue_slots", value * schedulers_per_core);
            return;
        }
        if (owner.compare(0, 5, "dram.") == 0) {
            // Per-channel stats; distributions arrive as
            // dram.chN.<dist>.<component>.
            if (stat == "requests" || stat == "row_hits")
                add("mem." + stat, value);
            if (stat == "total" || stat == "count") {
                if (leaf == "bytes_per_act" ||
                    leaf.compare(0, 9, "read_lat_") == 0)
                    add("mem." + leaf + "." + stat, value);
            }
            return;
        }
        if (owner == "display" && stat == "underruns") {
            add("soc.underruns", value);
            return;
        }
        if (isCpuCore(owner) && stat == "requests") {
            add("soc.cpu_requests", value);
            return;
        }
        if (owner == "npu.cam" &&
            (stat == "completed" || stat == "deadline_misses")) {
            add("npu." + stat, value);
            return;
        }
        if (owner == "npu.dma" &&
            (stat == "bytes_read" || stat == "bytes_written")) {
            add("npu.dma_bytes", value);
            return;
        }
    });
}

unsigned
schedulersPerCore(gpu::GpuTop &gpu)
{
    return gpu.core(0).params().schedulers;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Turn the summed counters into the per-layer metrics. */
void
finishLayerStats(std::map<std::string, double> raw, OpResult &result)
{
    auto &out = result.layerStats;
    out["sim.pool.heap_allocs"] = raw["sim.heap_allocs"];
    out["sim.pool.live_high_water"] = raw["sim.live_high_water"];

    out["core.raster_tiles"] = raw["core.raster_tiles"];
    out["core.hiz_reject_ratio"] =
        ratio(raw["core.hiz_rejects"], raw["core.raster_tiles"]);
    out["core.fragments"] = raw["core.fragments"];
    out["core.frag_warps"] = raw["core.frag_warps"];

    out["gpu.warp_instrs"] = raw["gpu.warp_instrs"];
    out["gpu.ipc"] = ratio(raw["gpu.warp_instrs"], raw["gpu.cycles_active"]);
    out["gpu.no_ready_warp_frac"] =
        ratio(raw["gpu.stall_no_ready_warp"], raw["gpu.issue_slots"]);
    out["gpu.lsu_stalls"] = raw["gpu.lsu_stalls"];

    for (const char *c : {"l1d", "l1t", "l1z", "l2"}) {
        std::string k = std::string("cache.") + c;
        out[k + ".hit_ratio"] =
            ratio(raw[k + ".hits"], raw[k + ".hits"] + raw[k + ".misses"]);
    }
    double accesses = raw["cache.all.hits"] + raw["cache.all.misses"];
    out["cache.reject_ratio"] =
        ratio(raw["cache.all.rejects"], accesses);
    out["cache.mshr_merge_ratio"] =
        ratio(raw["cache.all.mshr_merges"], raw["cache.all.misses"]);

    out["noc.packets"] = raw["noc.packets"];
    out["noc.retry_ratio"] = ratio(raw["noc.retries"], raw["noc.packets"]);

    out["mem.dram.requests"] = raw["mem.requests"];
    out["mem.dram.row_hit_ratio"] =
        ratio(raw["mem.row_hits"], raw["mem.requests"]);
    out["mem.dram.bytes_per_act"] = ratio(raw["mem.bytes_per_act.total"],
                                          raw["mem.bytes_per_act.count"]);
    for (const char *cls : {"gpu", "cpu", "display", "npu"}) {
        std::string k = std::string("mem.read_lat_") + cls;
        // Latencies are recorded in ticks (ps).
        out[std::string("mem.dram.read_lat_ns.") + cls] =
            ratio(raw[k + ".total"], raw[k + ".count"]) / 1000.0;
    }

    out["soc.display.underruns"] = raw["soc.underruns"];
    out["soc.cpu.requests"] = raw["soc.cpu_requests"];

    out["npu.completed"] = raw["npu.completed"];
    out["npu.deadline_misses"] = raw["npu.deadline_misses"];
    out["npu.dma.bytes"] = raw["npu.dma_bytes"];
}

/** Fold one rig's determinism hash into the op's. */
void
foldHash(OpResult &result, std::uint64_t hash)
{
    result.eventHash = (result.eventHash ^ hash) * 0x100000001b3ULL;
}

void
collectTrace(OpResult &result, const LayerProfile &profile)
{
    for (unsigned i = 0; i < numLayers; ++i) {
        result.layers.events[i] += profile.totals().events[i];
        result.layers.ns[i] += profile.totals().ns[i];
    }
    result.spans.insert(result.spans.end(), profile.spans().begin(),
                        profile.spans().end());
    for (const auto &[name, layer] : profile.names())
        result.eventNames[name] = layer;
}

// --- soc_frames ----------------------------------------------------------

soc::SocParams
socFramesParams(bool smoke)
{
    // Case study I high-load point (ROADMAP item 2's target): M2 cube,
    // 133 Mb/s/pin, DTB (DASH), 1 warm-up + 4 profiled frames.
    soc::SocParams p;
    p.model = scenes::WorkloadId::M2_Cube;
    p.memConfig = soc::MemConfig::DTB;
    p.highLoad = true;
    p.frames = smoke ? 2 : 5;
    p.fbWidth = smoke ? 128 : 256;
    p.fbHeight = smoke ? 96 : 192;
    p.cpuPrepRequests = 1500;
    return p;
}

/**
 * Build the SocTop, adding its construction time (topology, procedural
 * scene, shader assembly, trace load) to @p result's setup time.
 */
std::unique_ptr<soc::SocTop>
buildSoc(const soc::SocParams &p, const SimulationBuilder &builder,
         OpResult &result)
{
    auto start = Clock::now();
    auto rig = std::make_unique<soc::SocTop>(p, builder);
    result.setupS += secondsSince(start);
    return rig;
}

/** Run @p rig to completion; frame spans come from @p frames_done. */
void
runSoc(soc::SocTop &rig, const OpOptions &opts, const std::string &label,
       std::function<unsigned()> frames_done, OpResult &result)
{
    std::unique_ptr<LayerProfile> profile;
    if (opts.traced) {
        profile = std::make_unique<LayerProfile>(rig.sim().eventQueue());
        profile->setSpanProbe(std::move(frames_done), label + "frame");
    }
    auto start = Clock::now();
    // A rig that hits its safety limit exits the process (fatal);
    // run.py counts that op as failed.
    rig.run();
    result.wallS += secondsSince(start);
    if (profile) {
        profile->endSpan();
        collectTrace(result, *profile);
    }
    result.events += rig.sim().eventQueue().numProcessed();
    result.gpuCycles += rig.sim().clockDomain("gpu_clk").curCycle();
    foldHash(result, rig.sim().determinismHash());
}

OpResult
runSocFrames(const OpOptions &opts)
{
    OpResult result;
    soc::SocParams p = socFramesParams(opts.smoke);
    auto rig = buildSoc(p, builderFor(opts), result);
    runSoc(
        *rig, opts, "",
        [&rig] { return static_cast<unsigned>(rig->app().frames().size()); },
        result);

    const auto &frames = rig->app().frames();
    if (frames.size() != p.frames)
        fail(result, "soc_frames: wrong frame count");
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (frames[i].gpuTime() == 0)
            fail(result, "soc_frames: empty frame");
        result.outputs["frame" + std::to_string(i) + ".gpu_ms"] =
            msFromTicks(frames[i].gpuTime());
        result.outputs["frame" + std::to_string(i) + ".total_ms"] =
            msFromTicks(frames[i].totalTime());
    }
    result.outputs["display.frames_completed"] =
        rig->display().statFramesCompleted.value();

    std::map<std::string, double> raw;
    accumulateStats(rig->sim(), schedulersPerCore(rig->gpu()), raw);
    finishLayerStats(raw, result);
    result.layerStats["core.sim_gpu_frame_ms"] = rig->meanGpuFrameMs();
    result.layerStats["soc.sim_total_frame_ms"] = rig->meanTotalFrameMs();
    return result;
}

// --- mem_replay ----------------------------------------------------------

SynthTraceParams
replayTraceParams(std::uint64_t seed, bool smoke)
{
    SynthTraceParams tp;
    tp.seed = seed;
    if (smoke)
        tp.frames = 2;
    return tp;
}

OpResult
runMemReplay(const OpOptions &opts)
{
    OpResult result;
    const std::string &dir = opts.traceDir;
    std::uint64_t records = 0;
    unsigned frames = 0;
    {
        mem::TrafficTraceReader trace(dir);
        records = trace.numRecords();
        frames = trace.numFrames();
    }
    result.outputs["trace.records"] = static_cast<double>(records);
    // The framebuffer the trace was drawn for (and the soc_frames one).
    const SynthTraceParams shape;

    std::map<std::string, double> raw;
    double gpu_ms = 0.0, total_ms = 0.0;
    for (soc::MemConfig config :
         {soc::MemConfig::BAS, soc::MemConfig::DCB, soc::MemConfig::DTB,
          soc::MemConfig::HMC}) {
        const std::string name = soc::memConfigName(config);
        soc::SocParams p;
        p.memConfig = config;
        p.highLoad = true;
        p.frames = frames;
        p.fbWidth = shape.fbWidth;
        p.fbHeight = shape.fbHeight;
        p.cpuPrepRequests = 1500;
        // NPU camera stream on: a fourth DMA client in the mix.
        p.npuEnabled = true;

        SimulationBuilder builder = builderFor(opts);
        builder.replayTrace(dir);
        auto rig = buildSoc(p, builder, result);
        runSoc(
            *rig, opts, name + ".",
            [&rig] {
                return static_cast<unsigned>(
                    rig->replayDriver()->frames().size());
            },
            result);

        auto *driver = rig->replayDriver();
        if (driver->frames().size() != frames)
            fail(result, "mem_replay: " + name + " wrong frame count");
        if (driver->statReplayedTxns.value() !=
            static_cast<double>(records))
            fail(result, "mem_replay: " + name + " replayed " +
                             std::to_string(static_cast<std::uint64_t>(
                                 driver->statReplayedTxns.value())) +
                             " of " + std::to_string(records) +
                             " transactions");
        result.outputs[name + ".gpu_ms"] = rig->meanGpuFrameMs();
        result.outputs[name + ".total_ms"] = rig->meanTotalFrameMs();
        result.outputs[name + ".npu_completed"] =
            rig->npuCamera()->statCompleted.value();
        gpu_ms += rig->meanGpuFrameMs() / 4.0;
        total_ms += rig->meanTotalFrameMs() / 4.0;
        accumulateStats(rig->sim(), schedulersPerCore(rig->gpu()), raw);
    }
    finishLayerStats(raw, result);
    result.layerStats["core.sim_gpu_frame_ms"] = gpu_ms;
    result.layerStats["soc.sim_total_frame_ms"] = total_ms;
    return result;
}

// --- gpgpu_kernels -------------------------------------------------------

/** Gather: out[i] = src[idx[i]], indices stored as floats. */
const std::string &
gatherSource()
{
    static const std::string source = R"(
# out = src[idx]; src c[0], idx c[1], out c[2], count c[3].
mov.u32 r0, %ctaid.x
mov.u32 r1, %ntid.x
mul.u32 r0, r0, r1
mov.u32 r2, %tid.x
add.u32 r0, r0, r2
cvt.u32.f32 r3, c[3]
setp.ge.u32 p0, r0, r3
@p0 exit
shl.u32 r4, r0, 2
cvt.u32.f32 r5, c[1]
add.u32 r5, r5, r4
ldg.f32 r6, [r5]
cvt.u32.f32 r7, r6
shl.u32 r7, r7, 2
cvt.u32.f32 r8, c[0]
add.u32 r8, r8, r7
ldg.f32 r9, [r8]
cvt.u32.f32 r10, c[2]
add.u32 r10, r10, r4
stg.f32 [r10], r9
exit
)";
    return source;
}

constexpr unsigned ctaThreads = 128;

OpResult
runGpgpuKernels(const OpOptions &opts)
{
    OpResult result;
    const unsigned n = opts.smoke ? 4096 : 98304;
    const unsigned ctas = (n + ctaThreads - 1) / ctaThreads;

    // Integer-valued inputs keep every float result exact, so the
    // checks compare bit for bit.
    Random rng(opts.seed);
    std::vector<float> a(n), b(n), idx(n);
    for (unsigned i = 0; i < n; ++i) {
        a[i] = static_cast<float>(rng.below(256));
        b[i] = static_cast<float>(rng.below(256));
        idx[i] = static_cast<float>(rng.below(n));
    }

    auto setup_start = Clock::now();
    auto rig = std::make_unique<soc::StandaloneGpu>(
        64, 64, soc::caseStudy2GpuParams(), soc::caseStudy2MemParams(),
        builderFor(opts));
    core::ShaderBuilder shaders;
    const gpu::isa::Program *vecadd =
        shaders.buildKernel("vecadd", scenes::kernelVecAddSource());
    const gpu::isa::Program *saxpy =
        shaders.buildKernel("saxpy", scenes::kernelSaxpyBranchySource());
    const gpu::isa::Program *reduce =
        shaders.buildKernel("reduce", scenes::kernelReduceSource());
    const gpu::isa::Program *gather =
        shaders.buildKernel("gather", gatherSource());
    mem::FunctionalMemory &fmem = rig->functionalMemory();
    const Addr a_base = fmem.allocate(n * 4);
    const Addr b_base = fmem.allocate(n * 4);
    const Addr c_base = fmem.allocate(n * 4);
    const Addr idx_base = fmem.allocate(n * 4);
    const Addr part_base = fmem.allocate(ctas * 4);
    const Addr out_base = fmem.allocate(n * 4);
    for (unsigned i = 0; i < n; ++i) {
        fmem.writeF32(a_base + i * 4, a[i]);
        fmem.writeF32(b_base + i * 4, b[i]);
        fmem.writeF32(idx_base + i * 4, idx[i]);
    }
    result.setupS = secondsSince(setup_start);

    std::unique_ptr<LayerProfile> profile;
    if (opts.traced)
        profile = std::make_unique<LayerProfile>(rig->sim().eventQueue());

    auto f = [](Addr addr) { return static_cast<float>(addr); };
    struct Kernel
    {
        const char *name;
        const gpu::isa::Program *program;
        std::vector<float> constants;
        unsigned sharedBytes;
    };
    const Kernel kernels[] = {
        {"vecadd", vecadd, {f(a_base), f(b_base), f(c_base), f(n)}, 0},
        {"saxpy", saxpy, {f(a_base), f(c_base), 0.5f, f(n)}, 0},
        {"reduce", reduce, {f(a_base), f(part_base)}, ctaThreads * 4},
        {"gather", gather, {f(a_base), f(idx_base), f(out_base), f(n)}, 0},
    };
    auto start = Clock::now();
    for (const Kernel &k : kernels) {
        if (profile)
            profile->beginSpan(k.name);
        bool done = false;
        gpu::KernelLaunch launch;
        launch.program = k.program;
        launch.blockX = ctaThreads;
        launch.gridX = ctas;
        launch.memory = &rig->functionalMemory();
        launch.constants = k.constants;
        launch.sharedBytesPerCta = k.sharedBytes;
        launch.onDone = [&done] { done = true; };
        Tick kernel_start = rig->sim().curTick();
        rig->kernels().launch(std::move(launch));
        if (!rig->runUntil([&done] { return done; })) {
            fail(result, std::string("gpgpu_kernels: ") + k.name +
                             " hit the rig's limit");
            break;
        }
        result.outputs[std::string(k.name) + ".cycles"] =
            static_cast<double>(
                (rig->sim().curTick() - kernel_start) /
                rig->sim().clockDomain("gpu_clk").period());
    }
    result.wallS = secondsSince(start);
    if (profile) {
        profile->endSpan();
        collectTrace(result, *profile);
        profile.reset();
    }
    result.events = rig->sim().eventQueue().numProcessed();
    result.gpuCycles = rig->sim().clockDomain("gpu_clk").curCycle();
    foldHash(result, rig->sim().determinismHash());

    // Output checks, in the kernels' own float arithmetic.
    unsigned errors = 0;
    for (unsigned i = 0; i < n; ++i) {
        float c = a[i] + b[i];
        float x = a[i] * 0.5f;
        if (i % 2 == 0)
            x = x * 2.0f;
        c = x + c;
        errors += fmem.readF32(c_base + i * 4) != c;
        errors += fmem.readF32(out_base + i * 4) !=
                  a[static_cast<unsigned>(idx[i])];
    }
    for (unsigned cta = 0; cta < ctas; ++cta) {
        float sum = 0.0f;
        for (unsigned t = 0; t < ctaThreads && cta * ctaThreads + t < n;
             ++t)
            sum += a[cta * ctaThreads + t];
        errors += fmem.readF32(part_base + cta * 4) != sum;
    }
    if (errors)
        fail(result, "gpgpu_kernels: " + std::to_string(errors) +
                         " wrong results");
    result.outputs["errors"] = errors;

    std::map<std::string, double> raw;
    accumulateStats(rig->sim(), schedulersPerCore(rig->gpu()), raw);
    finishLayerStats(raw, result);
    result.layerStats["core.sim_gpu_frame_ms"] = 0.0;
    result.layerStats["soc.sim_total_frame_ms"] = 0.0;
    return result;
}

} // namespace

SynthTraceSummary
writeReplayTrace(const std::string &dir, std::uint64_t seed, bool smoke)
{
    return writeSynthTrace(dir, replayTraceParams(seed, smoke));
}

std::optional<Workload>
workloadFromName(const std::string &name)
{
    if (name == "soc_frames")
        return Workload::SocFrames;
    if (name == "mem_replay")
        return Workload::MemReplay;
    if (name == "gpgpu_kernels")
        return Workload::GpgpuKernels;
    return std::nullopt;
}

OpResult
runOp(const OpOptions &opts)
{
    switch (opts.workload) {
      case Workload::SocFrames: return runSocFrames(opts);
      case Workload::MemReplay: return runMemReplay(opts);
      default: return runGpgpuKernels(opts);
    }
}

} // namespace perfbench
