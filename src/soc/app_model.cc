#include "soc/app_model.hh"

#include <algorithm>

#include "mem/traffic_trace.hh"
#include "sim/logging.hh"
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

namespace
{

void
putFrameRecord(CheckpointOut &out, const std::string &prefix,
               const AppModel::FrameRecord &rec)
{
    out.putTick(prefix + ".prep_start", rec.prepStart);
    out.putTick(prefix + ".render_start", rec.renderStart);
    out.putTick(prefix + ".render_end", rec.renderEnd);
    out.putU64(prefix + ".gpu.cycles", rec.gpu.cycles);
    out.putTick(prefix + ".gpu.start_tick", rec.gpu.startTick);
    out.putTick(prefix + ".gpu.end_tick", rec.gpu.endTick);
    out.putU64(prefix + ".gpu.vertices", rec.gpu.vertices);
    out.putU64(prefix + ".gpu.prims_in", rec.gpu.primsIn);
    out.putU64(prefix + ".gpu.prims_culled", rec.gpu.primsCulled);
    out.putU64(prefix + ".gpu.raster_tiles", rec.gpu.rasterTiles);
    out.putU64(prefix + ".gpu.hiz_rejects", rec.gpu.hizRejects);
    out.putU64(prefix + ".gpu.fragments", rec.gpu.fragments);
    out.putU64(prefix + ".gpu.frag_warps", rec.gpu.fragWarps);
    out.putU64(prefix + ".gpu.wt_size", rec.gpu.wtSize);
}

AppModel::FrameRecord
getFrameRecord(CheckpointIn &in, const std::string &prefix)
{
    AppModel::FrameRecord rec;
    rec.prepStart = in.getTick(prefix + ".prep_start");
    rec.renderStart = in.getTick(prefix + ".render_start");
    rec.renderEnd = in.getTick(prefix + ".render_end");
    rec.gpu.cycles = in.getU64(prefix + ".gpu.cycles");
    rec.gpu.startTick = in.getTick(prefix + ".gpu.start_tick");
    rec.gpu.endTick = in.getTick(prefix + ".gpu.end_tick");
    rec.gpu.vertices = in.getU64(prefix + ".gpu.vertices");
    rec.gpu.primsIn = in.getU64(prefix + ".gpu.prims_in");
    rec.gpu.primsCulled = in.getU64(prefix + ".gpu.prims_culled");
    rec.gpu.rasterTiles = in.getU64(prefix + ".gpu.raster_tiles");
    rec.gpu.hizRejects = in.getU64(prefix + ".gpu.hiz_rejects");
    rec.gpu.fragments = in.getU64(prefix + ".gpu.fragments");
    rec.gpu.fragWarps = in.getU64(prefix + ".gpu.frag_warps");
    rec.gpu.wtSize =
        static_cast<unsigned>(in.getU64(prefix + ".gpu.wt_size"));
    return rec;
}

} // namespace

void
AppModel::serialize(CheckpointOut &out) const
{
    panic_if(_rendering, "%s: serialize while rendering",
             name().c_str());
    out.putU64("frames_done", _framesDone);
    out.putU64("cores_pending", _coresPending);
    out.putTick("frame_slot_start", _frameSlotStart);
    out.putF64("frag_estimate", _workEstimate);
    // Execution-driven progress counts whole fragments.
    out.putU64("progress_reported",
               static_cast<std::uint64_t>(_progressReported));
    putFrameRecord(out, "current", _current);
    out.putU64("num_records", _records.size());
    for (std::size_t i = 0; i < _records.size(); ++i)
        putFrameRecord(out, strprintf("r%zu", i), _records[i]);
}

void
AppModel::unserialize(CheckpointIn &in)
{
    _framesDone = static_cast<unsigned>(in.getU64("frames_done"));
    _coresPending = static_cast<unsigned>(in.getU64("cores_pending"));
    _frameSlotStart = in.getTick("frame_slot_start");
    _workEstimate = in.getF64("frag_estimate");
    _progressReported =
        static_cast<double>(in.getU64("progress_reported"));
    _current = getFrameRecord(in, "current");
    std::uint64_t num_records = in.getU64("num_records");
    _records.clear();
    for (std::uint64_t i = 0; i < num_records; ++i) {
        _records.push_back(getFrameRecord(
            in, strprintf("r%llu", (unsigned long long)i)));
    }

    // Mid-prep checkpoints leave cores holding a quota-done fence
    // that cannot travel as data; re-install it.
    for (CpuCoreModel *core : _cores) {
        if (core->needsQuotaCallbackRebind())
            core->rebindQuotaCallback([this] { corePrepDone(); });
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
