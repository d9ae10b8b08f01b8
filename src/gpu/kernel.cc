#include "gpu/kernel.hh"

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::gpu
{

KernelDispatcher::KernelDispatcher(Simulation &sim,
                                   const std::string &name, GpuTop &gpu)
    : SimObject(sim, name), Clocked(gpu.coreClock(), name), _gpu(gpu)
{
    registerCheckpointEvent(tickEvent());
}

void
KernelDispatcher::serialize(CheckpointIo &io)
{
    panic_if(busy(), "%s: checkpoint with kernels in flight",
             name().c_str());
    io.scalar("next_core", _nextCore);
    io.scalar("next_cta_key", _nextCtaKey);
}

void
KernelDispatcher::launch(KernelLaunch launch)
{
    panic_if(!launch.program, "kernel launch without program");
    panic_if(launch.threadsPerCta() == 0, "empty CTA");
    _pending.push_back(std::move(launch));
    activate();
}

bool
KernelDispatcher::dispatchNextCta()
{
    ActiveKernel &kernel = *_current;
    if (kernel.nextCta >= kernel.launch.numCtas())
        return false;

    unsigned warps = kernel.launch.warpsPerCta();
    // Find a core that can take the whole CTA (barriers require
    // co-location).
    for (unsigned attempt = 0; attempt < _gpu.numCores(); ++attempt) {
        unsigned core_idx = (_nextCore + attempt) % _gpu.numCores();
        SimtCore &core = _gpu.core(core_idx);
        if (core.queuedTasks() + warps >
            core.params().taskQueueDepth) {
            continue;
        }

        unsigned cta_index = kernel.nextCta;
        unsigned cta_x = cta_index % kernel.launch.gridX;
        unsigned cta_y = cta_index / kernel.launch.gridX;

        auto cta = std::make_unique<CtaState>();
        cta->sharedMem.resize(kernel.launch.sharedBytesPerCta, 0);
        cta->warpsOutstanding = warps;
        CtaState *cta_ptr = cta.get();
        kernel.ctas.push_back(std::move(cta));
        ++kernel.ctasOutstanding;

        int cta_key = _nextCtaKey++;
        unsigned threads = kernel.launch.threadsPerCta();

        for (unsigned w = 0; w < warps; ++w) {
            WarpTask task;
            task.type = WarpTaskType::Compute;
            task.program = kernel.launch.program;
            task.state = std::make_unique<isa::WarpState>();
            isa::WarpState &state = *task.state;
            task.ctaKey = cta_key;
            task.ctaWarps = warps;
            task.env.global = kernel.launch.memory;
            task.env.constants = kernel.launch.constants.data();
            task.env.numConstants = static_cast<unsigned>(
                kernel.launch.constants.size());
            task.env.sharedMem = cta_ptr->sharedMem.data();
            task.env.sharedSize = static_cast<unsigned>(
                cta_ptr->sharedMem.size());

            std::uint32_t mask = 0;
            for (unsigned lane = 0; lane < isa::warpSize; ++lane) {
                unsigned tid = w * isa::warpSize + lane;
                if (tid >= threads)
                    break;
                mask |= 1u << lane;
                state.tidX[lane] = tid % kernel.launch.blockX;
                state.tidY[lane] = tid / kernel.launch.blockX;
                state.ctaIdX[lane] = cta_x;
                state.ctaIdY[lane] = cta_y;
                state.ntidX[lane] = kernel.launch.blockX;
                state.ntidY[lane] = kernel.launch.blockY;
            }
            task.activeMask = mask;

            unsigned cta_slot =
                static_cast<unsigned>(kernel.ctas.size()) - 1;
            task.onComplete = [this, cta_slot](const isa::WarpState &) {
                warpFinished(cta_slot);
            };

            bool accepted = core.tryAddTask(std::move(task));
            panic_if(!accepted, "core rejected CTA warp after check");
        }

        ++kernel.nextCta;
        _nextCore = (core_idx + 1) % _gpu.numCores();
        return true;
    }
    return false;
}

void
KernelDispatcher::warpFinished(unsigned cta_index)
{
    ActiveKernel &kernel = *_current;
    CtaState &cta = *kernel.ctas[cta_index];
    panic_if(cta.warpsOutstanding == 0, "CTA warp over-completion");
    if (--cta.warpsOutstanding == 0)
        --kernel.ctasOutstanding;
    activate();
}

bool
KernelDispatcher::tick()
{
    if (!_current) {
        if (_pending.empty())
            return false;
        _current = std::make_unique<ActiveKernel>();
        _current->launch = std::move(_pending.front());
        _pending.pop_front();
    }

    while (dispatchNextCta()) {
    }

    ActiveKernel &kernel = *_current;
    if (kernel.nextCta >= kernel.launch.numCtas() &&
        kernel.ctasOutstanding == 0) {
        auto done = std::move(kernel.launch.onDone);
        _current.reset();
        if (done)
            done();
        return busy();
    }
    return true;
}

} // namespace emerald::gpu
