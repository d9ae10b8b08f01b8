/**
 * @file
 * DFSL: Dynamic Fragment Shading Load-balancing (paper Section 6.3,
 * Algorithm 1).
 *
 * DFSL exploits graphics temporal coherence: consecutive frames are
 * similar, so the best work-tile (WT) granularity measured on recent
 * frames predicts the best granularity for upcoming ones. It
 * alternates an evaluation phase — one frame rendered at each WT size
 * in [MinWT, MaxWT] — with a run phase that uses the best observed
 * WT for RunFrames frames, then re-evaluates.
 */

#ifndef EMERALD_CORE_DFSL_HH
#define EMERALD_CORE_DFSL_HH

#include <cstdint>

#include "sim/types.hh"

namespace emerald::core
{

struct DfslParams
{
    unsigned minWT = 1;
    unsigned maxWT = 10;
    /** Frames rendered with WTBest between evaluations. */
    unsigned runFrames = 100;
};

/**
 * Per-application DFSL state. In a real system this lives in the
 * graphics driver (paper: "DFSL can be implemented as part of the
 * graphics driver"); here the harness queries wtForNextFrame() before
 * each frame and reports the frame's execution time afterwards.
 */
class DfslController
{
  public:
    explicit DfslController(const DfslParams &params);

    /** WT size to use for the upcoming frame. */
    unsigned wtForNextFrame() const;

    /** Report the execution time of the frame just rendered. */
    void frameCompleted(std::uint64_t exec_cycles);

    /** True while in the evaluation phase. */
    bool evaluating() const;

    unsigned bestWT() const { return _wtBest; }

  private:
    unsigned evalFrames() const { return _params.maxWT - _params.minWT
                                         + 1; }
    unsigned phaseLength() const
    {
        return evalFrames() + _params.runFrames;
    }

    DfslParams _params;
    std::uint64_t _currFrame = 0;
    std::uint64_t _minExecTime = ~std::uint64_t(0);
    unsigned _wtBest;
};

} // namespace emerald::core

#endif // EMERALD_CORE_DFSL_HH
