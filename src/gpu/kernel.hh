/**
 * @file
 * GPGPU kernel launch: grids of thread blocks (CTAs) dispatched onto
 * the same SIMT cores graphics uses. Each CTA's warps are co-located
 * on one core so shared memory and barriers work.
 */

#ifndef EMERALD_GPU_KERNEL_HH
#define EMERALD_GPU_KERNEL_HH

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "gpu/gpu_top.hh"
#include "gpu/warp.hh"
#include "sim/sim_object.hh"

namespace emerald::gpu
{

/** One kernel launch request. */
struct KernelLaunch
{
    const isa::Program *program = nullptr;
    unsigned gridX = 1, gridY = 1;
    unsigned blockX = 32, blockY = 1;
    std::vector<float> constants;
    mem::FunctionalMemory *memory = nullptr;
    unsigned sharedBytesPerCta = 0;
    std::function<void()> onDone;

    unsigned threadsPerCta() const { return blockX * blockY; }
    unsigned
    warpsPerCta() const
    {
        return static_cast<unsigned>(
            divCeil(threadsPerCta(), isa::warpSize));
    }
    unsigned numCtas() const { return gridX * gridY; }
};

/**
 * Issues CTAs to cores round-robin as space frees up; tracks CTA and
 * kernel completion.
 */
class KernelDispatcher : public SimObject, public Clocked
{
  public:
    KernelDispatcher(Simulation &sim, const std::string &name,
                     GpuTop &gpu);

    /** Queue a kernel; runs after earlier launches finish. */
    void launch(KernelLaunch launch);

    bool busy() const { return _current || !_pending.empty(); }

    void serialize(CheckpointIo &io) override;
    /**
     * Launch queues hold program pointers and completion lambdas
     * that cannot travel through a checkpoint; only the idle
     * dispatcher (round-robin cursor, CTA key counter) can.
     */
    bool checkpointSafe() const override { return !busy(); }

  protected:
    bool tick() override;

  private:
    struct CtaState
    {
        std::vector<std::uint8_t> sharedMem;
        unsigned warpsOutstanding = 0;
    };

    struct ActiveKernel
    {
        KernelLaunch launch;
        unsigned nextCta = 0;
        unsigned ctasOutstanding = 0;
        std::vector<std::unique_ptr<CtaState>> ctas;
    };

    /** Try to place the next CTA; @return true on progress. */
    bool dispatchNextCta();
    void warpFinished(unsigned cta_index);

    GpuTop &_gpu;
    std::deque<KernelLaunch> _pending;
    std::unique_ptr<ActiveKernel> _current;
    unsigned _nextCore = 0;
    int _nextCtaKey = 1;
};

} // namespace emerald::gpu

#endif // EMERALD_GPU_KERNEL_HH
