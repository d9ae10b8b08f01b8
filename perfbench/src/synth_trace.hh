/**
 * @file
 * Seeded synthetic GPU memory-traffic trace for the mem_replay
 * workload, written through mem::TrafficTraceWriter so SocTop's
 * --replay-trace path loads it like a captured one.
 *
 * A captured trace would cost a full execution-driven run on every
 * benchmark invocation; this one is generated in well under a second.
 * It has one stream per SIMT core ("gpu.sc<i>") and frame brackets, and
 * its shape is calibrated against a capture of the soc_frames point
 * (README.md, "Calibration"): each core shades its tiles of a seeded
 * object box, pass after pass, as warps of an instruction fetch, early
 * depth writes (some reading first), texture reads with 2D locality
 * over a 64 KB window, and colour writes; transactions come in the
 * captured bursts and pauses.
 */

#ifndef PERFBENCH_SYNTH_TRACE_HH
#define PERFBENCH_SYNTH_TRACE_HH

#include <cstdint>
#include <map>
#include <string>

#include "sim/types.hh"

namespace perfbench
{

struct SynthTraceParams
{
    std::uint64_t seed = 1;
    /** One client stream per SIMT core; case-study-I GPU has 4. */
    unsigned cores = 4;
    unsigned frames = 15;
    /** Mean transactions per core per frame (captured: ~2100); the
     * seed varies it per core and frame. */
    unsigned txnsPerCoreFrame = 2100;
    unsigned fbWidth = 256;
    unsigned fbHeight = 192;
};

/** What the generator produced, for checking a loaded trace. */
struct SynthTraceSummary
{
    std::uint64_t records = 0;
    std::uint64_t writes = 0;
    std::uint64_t textureReads = 0;
    /** Share of ROP (Depth/Color) transactions the seed picked. */
    double ropShare = 0.0;
};

/** Framebuffer base recorded in the trace (display scans it). */
constexpr emerald::Addr synthFbBase = 0x70000000ULL;

/** Write the trace directory @p dir (replacing its files). */
SynthTraceSummary writeSynthTrace(const std::string &dir,
                                  const SynthTraceParams &params);

/**
 * The figures the synthetic trace is calibrated against, read from any
 * trace directory (synthetic or captured with --capture-trace): record
 * counts per client, the access-kind mix, spacing between a core's
 * successive transactions, and the lines each kind touches.
 */
std::map<std::string, double> profileTrace(const std::string &dir);

} // namespace perfbench

#endif // PERFBENCH_SYNTH_TRACE_HH
