/**
 * @file
 * Display controller DMA model.
 *
 * Scans the framebuffer out line by line at the refresh rate,
 * prefetching ahead of the scan position. If memory cannot keep up
 * (scanout reaches an unfetched line too often), the controller
 * aborts the frame and retries at the next refresh — the feedback
 * behaviour the paper observed under DASH in case study I ("the
 * display controller aborts the frame and re-tries a new frame
 * later", Fig. 13/14).
 */

#ifndef EMERALD_SOC_DISPLAY_CONTROLLER_HH
#define EMERALD_SOC_DISPLAY_CONTROLLER_HH

#include "mem/dash_scheduler.hh"
#include "sim/packet.hh"
#include "sim/sim_object.hh"

namespace emerald::soc
{

/** Requestor id for the display controller. */
constexpr int displayRequestorId = 101;

struct DisplayParams
{
    Addr fbBase = 0x80000000ULL;
    unsigned width = 320;
    unsigned height = 240;
    unsigned bytesPerPixel = 4;
    Tick refreshPeriod = ticksFromMs(16.6);
    /** Lines the FIFO may run ahead of scanout. */
    unsigned prefetchLines = 4;
    unsigned maxOutstanding = 8;
    /** Scan lines found unfetched before the frame is aborted. */
    unsigned abortThreshold = 8;
};

class DisplayController : public SimObject,
                          public MemClient,
                          public MemRequestor
{
  public:
    DisplayController(Simulation &sim, const std::string &name,
                      const DisplayParams &params, MemSink &downstream,
                      mem::DashCoordinator *dash = nullptr);

    /** Begin refreshing; runs until stop(). */
    void start();
    void stop();

    void memResponse(MemPacket *pkt) override;
    void retryRequest() override;

    /**
     * Watchdog degrade recovery: if a fetch is stuck (a held rejected
     * packet or responses that never arrived), abandon the frame so
     * scanout restarts clean at the next vsync. Counted in
     * soc.display.dropped_frames.
     */
    void onWatchdogDegrade() override;

    void hangDiagnostics(std::ostream &os) const override;

    void serialize(CheckpointIo &io) override;

    /** @{ Statistics. */
    Scalar statFramesCompleted;
    Scalar statFramesAborted;
    Scalar statUnderruns;
    Scalar statBytesFetched;
    Scalar statRequests;
    Scalar statDroppedFrames;
    /** @} */

  private:
    void vsync();
    void scanLine();
    void pump();
    /** Post-acceptance bookkeeping for one fetched packet. */
    void advanceFetchCursor();
    /** Discard a rejected packet held across a frame boundary. */
    void dropRetryPkt();
    unsigned packetsPerLine() const;

    DisplayParams _params;
    MemSink &_downstream;
    mem::DashCoordinator *_dash;
    int _dashIp = -1;

    bool _running = false;
    bool _frameAborted = false;
    unsigned _scanLine = 0;
    unsigned _fetchLine = 0;
    unsigned _fetchPacket = 0;
    /** Fully fetched lines (responses received). */
    unsigned _linesDone = 0;
    unsigned _lineRespRemaining = 0;
    unsigned _outstanding = 0;
    unsigned _underrunsThisFrame = 0;
    /** Guards against re-entrant pump() on synchronous responses. */
    bool _pumping = false;
    /**
     * Packet rejected by memory, held (with its _outstanding slot
     * still reserved) until the sink's retryRequest() wakes us. The
     * controller never polls.
     */
    MemPacket *_retryPkt = nullptr;

    EventFunction _vsyncEvent;
    EventFunction _scanEvent;
};

} // namespace emerald::soc

#endif // EMERALD_SOC_DISPLAY_CONTROLLER_HH
