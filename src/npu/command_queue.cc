#include "npu/command_queue.hh"

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"

namespace emerald::npu
{

bool
NpuCommandQueue::push(const NpuCommand &cmd)
{
    if (full())
        return false;
    _queue.push_back(cmd);
    return true;
}

NpuCommand
NpuCommandQueue::pop()
{
    panic_if(_queue.empty(), "npu command queue underflow");
    NpuCommand cmd = _queue.front();
    _queue.pop_front();
    return cmd;
}

void
NpuCommand::serialize(CheckpointIo &io, const std::string &prefix)
{
    io.scalar(prefix + ".id", id);
    io.scalar(prefix + ".frame", frame);
    io.scalar(prefix + ".deadline", deadline);
    io.scalar(prefix + ".enqueued", enqueued);
}

void
NpuCommandQueue::serialize(CheckpointIo &io, const std::string &prefix)
{
    io.sequence(prefix + ".num", prefix + ".c", _queue,
                [&](const std::string &key, NpuCommand &cmd) {
                    cmd.serialize(io, key);
                });
}

} // namespace emerald::npu
