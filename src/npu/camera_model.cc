#include "npu/camera_model.hh"

#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::npu
{

CameraInferenceModel::CameraInferenceModel(
    Simulation &sim, const std::string &name,
    const CameraParams &params, NpuCommandSink &npu,
    mem::QosProgressPort *qos)
    : SimObject(sim, name),
      statFrames(*this, "frames", "camera frames captured"),
      statDropped(*this, "dropped",
                  "frames dropped (command queue full)"),
      statCompleted(*this, "completed", "inferences completed"),
      statAborted(*this, "aborted",
                  "inferences lost to degrade recovery"),
      statDeadlineMisses(*this, "deadline_misses",
                         "inferences finished past their deadline"),
      statInfTicks(*this, "inf_ticks",
                   "camera-to-completion inference latency (ticks)"),
      _params(params), _npu(npu), _qos(qos),
      _frameEvent([this] { captureFrame(); }, name + ".frame")
{
    fatal_if(_params.framePeriod == 0, "%s: zero frame period",
             name.c_str());
    registerProfileCounters();
    registerCheckpointEvent(_frameEvent);
    if (_qos) {
        _qosIp = _qos->registerIp(name, TrafficClass::Npu,
                                  _params.emergentThreshold);
    }
}

void
CameraInferenceModel::start()
{
    _running = true;
    scheduleIn(_frameEvent, 0);
}

void
CameraInferenceModel::stop()
{
    _running = false;
    descheduleIfPending(_frameEvent);
}

void
CameraInferenceModel::captureFrame()
{
    ++statFrames;
    NpuCommand cmd;
    cmd.id = _nextCmdId++;
    cmd.frame = _frame++;
    cmd.enqueued = curTick();
    // The inference is stale once the next frame arrives.
    cmd.deadline = curTick() + _params.framePeriod;
    if (!_npu.submit(cmd)) {
        ++statDropped;
    } else if (_qos && _qosIp >= 0 && _qosCmdId == 0) {
        _qosCmdId = cmd.id;
        _qos->beginIpPeriod(_qosIp, _params.framePeriod,
                            _npu.inferenceWork());
    }
    if (_running &&
        (_params.frames == 0 || _frame < _params.frames))
        scheduleIn(_frameEvent, _params.framePeriod);
}

void
CameraInferenceModel::npuCommandProgress(const NpuCommand &cmd,
                                         double work)
{
    if (_qos && _qosIp >= 0 && cmd.id == _qosCmdId)
        _qos->addIpProgress(_qosIp, work);
}

void
CameraInferenceModel::npuCommandDone(const NpuCommand &cmd,
                                     Tick finished, bool aborted)
{
    if (_qos && _qosIp >= 0 && cmd.id == _qosCmdId) {
        _qos->endIpPeriod(_qosIp);
        _qosCmdId = 0;
    }
    if (aborted) {
        ++statAborted;
        return;
    }
    ++statCompleted;
    statInfTicks.sample(static_cast<double>(finished - cmd.enqueued));
    if (finished > cmd.deadline)
        ++statDeadlineMisses;
}

void
CameraInferenceModel::serialize(CheckpointIo &io)
{
    io.scalar("running", _running);
    io.scalar("frame", _frame);
    io.scalar("next_cmd_id", _nextCmdId);
    io.scalar("qos_cmd_id", _qosCmdId);
}

} // namespace emerald::npu
