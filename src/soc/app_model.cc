#include "soc/app_model.hh"

#include <algorithm>

#include "mem/traffic_trace.hh"
#include "sim/logging.hh"
#include "sim/serialize/checkpoint_io.hh"
#include "sim/simulation.hh"

namespace emerald::soc
{

AppModel::AppModel(Simulation &sim, const std::string &name,
                   const AppParams &params,
                   std::vector<CpuCoreModel *> cores,
                   mem::DashCoordinator *dash,
                   std::function<void()> on_all_frames_done)
    : SimObject(sim, name),
      statFrames(*this, "frames", "application frames completed"),
      statGpuFrameTicks(*this, "gpu_frame_ticks",
                        "GPU render time per frame (ticks)"),
      statTotalFrameTicks(*this, "total_frame_ticks",
                          "prep+render time per frame (ticks)"),
      _params(params), _cores(std::move(cores)), _dash(dash),
      _onDone(std::move(on_all_frames_done)),
      _startPrepEvent([this] { beginPrep(); }, name + ".prep"),
      _pollEvent([this] { pollProgress(); }, name + ".poll")
{
    if (_dash)
        _dashIp = _dash->registerIp(name + ".gpu", TrafficClass::Gpu,
                                    0.9);
    registerCheckpointEvent(_startPrepEvent);
    registerCheckpointEvent(_pollEvent);
}

void
AppModel::FrameRecord::serialize(CheckpointIo &io,
                                 const std::string &prefix)
{
    io.scalar(prefix + ".prep_start", prepStart);
    io.scalar(prefix + ".render_start", renderStart);
    io.scalar(prefix + ".render_end", renderEnd);
    gpu.serialize(io, prefix + ".gpu");
}

void
AppModel::serialize(CheckpointIo &io)
{
    panic_if(_rendering, "%s: checkpoint while rendering",
             name().c_str());
    io.scalar("frames_done", _framesDone);
    io.scalar("cores_pending", _coresPending);
    io.scalar("frame_slot_start", _frameSlotStart);
    io.scalar("frag_estimate", _workEstimate);
    // Execution-driven progress counts whole fragments.
    io.scalar<std::uint64_t>("progress_reported", _progressReported);
    _current.serialize(io, "current");
    io.sequence("num_records", "r", _records,
                [&](const std::string &key, FrameRecord &rec) {
                    rec.serialize(io, key);
                });

    // Mid-prep checkpoints leave cores holding a quota-done fence
    // that cannot travel as data; re-install it.
    if (io.loading()) {
        for (CpuCoreModel *core : _cores) {
            if (core->needsQuotaCallbackRebind())
                core->rebindQuotaCallback([this] { corePrepDone(); });
        }
    }
}

void
AppModel::start()
{
    scheduleIn(_startPrepEvent, 0);
}

void
AppModel::beginPrep()
{
    _frameSlotStart = curTick();
    _current = FrameRecord{};
    _current.prepStart = curTick();

    // CPU-side work: all cores burn through their prep quota.
    _coresPending = static_cast<unsigned>(_cores.size());
    for (CpuCoreModel *core : _cores) {
        core->setBackground(false);
        core->runQuota(_params.cpuPrepRequests,
                       [this] { corePrepDone(); });
    }
}

void
AppModel::corePrepDone()
{
    panic_if(_coresPending == 0, "prep over-completion");
    if (--_coresPending == 0)
        beginRender();
}

void
AppModel::beginRender()
{
    _rendering = true;
    _current.renderStart = curTick();
    _progressReported = 0.0;

    if (_traceWriter)
        _traceWriter->beginFrame(curTick());

    // App threads keep light background activity while blocked on
    // the GPU fence.
    for (CpuCoreModel *core : _cores)
        core->setBackground(true);

    if (dashTracked()) {
        double estimate = _workEstimate > 0.0 ? _workEstimate : 1e9;
        _dash->beginIpPeriod(_dashIp, _params.gpuFramePeriod,
                             estimate);
        scheduleIn(_pollEvent, _params.progressPollPeriod);
    }

    renderFrame(_framesDone);
}

void
AppModel::reportProgress(double work)
{
    if (work > _progressReported) {
        _dash->addIpProgress(_dashIp, work - _progressReported);
        _progressReported = work;
    }
}

void
AppModel::pollProgress()
{
    if (!dashTracked())
        return;
    reportProgress(renderProgress());
    scheduleIn(_pollEvent, _params.progressPollPeriod);
}

void
AppModel::renderDone(double work, const core::FrameStats &stats)
{
    _rendering = false;
    _current.renderEnd = curTick();
    _current.gpu = stats;

    if (_traceWriter)
        _traceWriter->endFrame(curTick(), work);
    _records.push_back(_current);
    ++_framesDone;
    ++statFrames;
    statGpuFrameTicks.sample(
        static_cast<double>(_current.gpuTime()));
    statTotalFrameTicks.sample(
        static_cast<double>(_current.totalTime()));
    _workEstimate = work;

    descheduleIfPending(_pollEvent);
    if (dashTracked())
        _dash->endIpPeriod(_dashIp);

    for (CpuCoreModel *core : _cores)
        core->setBackground(false);

    if (_framesDone >= _params.frames) {
        if (_onDone)
            _onDone();
        return;
    }

    // Vsync pacing: next frame at the period boundary (or now, if
    // the deadline slipped).
    Tick next = _frameSlotStart + _params.gpuFramePeriod;
    Tick when = std::max(curTick(), next);
    schedule(_startPrepEvent, when);
}

SceneApp::SceneApp(Simulation &sim, const std::string &name,
                   const AppParams &params,
                   scenes::SceneRenderer &scene,
                   std::vector<CpuCoreModel *> cores,
                   mem::DashCoordinator *dash,
                   std::function<void()> on_all_frames_done)
    : AppModel(sim, name, params, std::move(cores), dash,
               std::move(on_all_frames_done)),
      _scene(scene)
{}

void
SceneApp::renderFrame(unsigned idx)
{
    // Fine-grained progress from the pipeline, on top of the poll.
    if (dashTracked()) {
        _scene.pipeline().setProgressListener(
            [this](std::uint64_t frags) {
                reportProgress(static_cast<double>(frags));
            });
    }
    _scene.renderFrame(idx, [this](const core::FrameStats &s) {
        _scene.pipeline().setProgressListener(nullptr);
        renderDone(static_cast<double>(s.fragments), s);
    });
}

double
SceneApp::renderProgress() const
{
    return static_cast<double>(
        _scene.pipeline().currentFrameFragments());
}

} // namespace emerald::soc
