/**
 * @file
 * NPU command queue and the submit/interrupt interfaces around it.
 *
 * The host side (the camera-inference workload model) submits
 * NpuCommands through NpuCommandSink; the device (NpuTop) executes
 * them in FIFO order and delivers interrupt-style completions through
 * NpuIntClient after a modeled IRQ latency — the command-queue +
 * interrupt shape of gem5-aladdin's v2.0 systolic-array device
 * (SNIPPETS.md). Both sides hold only these abstract interfaces, so
 * the seam stays cuttable for the shard partitioner
 * (docs/static_analysis.md) and either side can be faked in tests.
 */

#ifndef EMERALD_NPU_COMMAND_QUEUE_HH
#define EMERALD_NPU_COMMAND_QUEUE_HH

#include <cstdint>
#include <deque>
#include <string>

#include "sim/types.hh"

namespace emerald
{
class CheckpointIo;
} // namespace emerald

namespace emerald::npu
{

/** One queued inference request. */
struct NpuCommand
{
    /** Monotonic id assigned by the submitter. */
    std::uint64_t id = 0;
    /** Camera frame index this inference belongs to. */
    std::uint32_t frame = 0;
    /** Absolute completion deadline. */
    Tick deadline = 0;
    /** Submission tick (queue-wait accounting). */
    Tick enqueued = 0;

    /** Checkpoint the command under "<prefix>." keys. */
    void serialize(CheckpointIo &io, const std::string &prefix);
};

/** Device-side interface the workload model submits into. */
class NpuCommandSink
{
  public:
    virtual ~NpuCommandSink() = default;

    /** Enqueue @p cmd; false when the command queue is full. */
    virtual bool submit(const NpuCommand &cmd) = 0;

    virtual std::size_t queueDepth() const = 0;
    virtual unsigned queueCapacity() const = 0;

    /** Total work units (tiles) one inference executes. */
    virtual double inferenceWork() const = 0;
};

/** Host-side interrupt handler for command completion/progress. */
class NpuIntClient
{
  public:
    virtual ~NpuIntClient() = default;

    /**
     * Command @p cmd retired (interrupt). @p finished is the tick
     * execution ended (the IRQ itself lands irqLatency later);
     * @p aborted marks a watchdog-degrade abort instead of a
     * completed inference.
     */
    virtual void npuCommandDone(const NpuCommand &cmd, Tick finished,
                                bool aborted) = 0;

    /** @p work more units of @p cmd completed (deadline tracking). */
    virtual void npuCommandProgress(const NpuCommand &cmd,
                                    double work) = 0;
};

/** Bounded FIFO of pending commands, checkpoint-serializable. */
class NpuCommandQueue
{
  public:
    explicit NpuCommandQueue(unsigned capacity) : _capacity(capacity) {}

    bool full() const { return _queue.size() >= _capacity; }
    bool empty() const { return _queue.empty(); }
    std::size_t size() const { return _queue.size(); }
    unsigned capacity() const { return _capacity; }

    /** @return false (queue unchanged) when full. */
    bool push(const NpuCommand &cmd);

    /** Pop the oldest command. @pre !empty(). */
    NpuCommand pop();

    const NpuCommand &front() const { return _queue.front(); }

    /** Checkpoint the queued commands under "<prefix>." keys. */
    void serialize(CheckpointIo &io, const std::string &prefix);

  private:
    unsigned _capacity;
    std::deque<NpuCommand> _queue;
};

} // namespace emerald::npu

#endif // EMERALD_NPU_COMMAND_QUEUE_HH
