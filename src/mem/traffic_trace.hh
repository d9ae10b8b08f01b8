/**
 * @file
 * Memory-traffic trace capture and loading (--capture-trace /
 * --replay-trace), the data plane of the replay fast path in
 * docs/scheduling.md.
 *
 * A traffic trace records, per client (one per SIMT core), every
 * transaction the core's LSU successfully handed to its L1 — the
 * coalescer/LSU boundary — with the tick offset from the enclosing
 * frame's render start. Replay feeds the same stream back through the
 * full memory system (L1s, GPU NoC, L2, system NoC, DRAM, DASH)
 * without executing any shader code, so memory-scheduler policy
 * sweeps run at a fraction of the execution-driven cost (the ODIN
 * replay idea from PAPERS.md).
 *
 * This is distinct from core/trace.hh: that format records API-level
 * draw calls for re-rendering; this one records timed memory traffic
 * for memory-system studies.
 *
 * On disk a trace is a src/sim/serialize/ checkpoint directory
 * (one CRC-checked data.bin) whose sections hold typed-record
 * vectors: a "meta" section (format version, label, framebuffer
 * base, frame table, client count) plus one "client<i>" section per
 * client, one U64Vec column per TraceTxn field. The writer and the
 * reader share one listing of it. The config fingerprint field is
 * left 0 — a trace is deliberately replayable under a different
 * scheduler policy, which changes the fingerprint.
 */

#ifndef EMERALD_MEM_TRAFFIC_TRACE_HH
#define EMERALD_MEM_TRAFFIC_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/packet.hh"
#include "sim/types.hh"

namespace emerald::mem
{

/** Bump on any incompatible change to the trace schema. */
constexpr std::uint64_t trafficTraceFormatVersion = 1;

/** One recorded transaction, decoded (24 bytes). */
struct TraceTxn
{
    /** Tick offset from its frame's render start. */
    Tick offset;
    Addr addr;
    /** Frame the transaction belongs to. */
    std::uint32_t frame;
    AccessKind kind;
    bool write;
};

/**
 * What a trace file holds, as the writer builds it and the reader
 * loads it: one listing (traffic_trace.cc) writes and reads it all.
 */
struct TrafficTraceData
{
    std::string label;
    Addr fbBase = 0;
    /** The frame table: render start and end, and shaded work. */
    std::vector<Tick> frameStart;
    std::vector<Tick> frameEnd;
    std::vector<double> frameWork;
    /** Records dropped before the first frame began. */
    std::uint64_t dropped = 0;

    struct Client
    {
        std::string name;
        /** Transactions in recorded (issue) order. */
        std::vector<TraceTxn> txns;
    };
    std::vector<Client> clients;
};

/**
 * Accumulates one run's traffic in memory and writes the trace
 * directory in finalize(). Clients register once (in a fixed order —
 * replay maps client i back to core i); frames are bracketed by
 * beginFrame()/endFrame() from the application model.
 */
class TrafficTraceWriter
{
  public:
    /**
     * @param label free-form workload tag (e.g. the model name),
     *        stored for diagnostics.
     * @param fb_base framebuffer base address, so a replay run can
     *        point the display controller at the right region without
     *        building a scene.
     */
    TrafficTraceWriter(std::string dir, std::string label,
                       Addr fb_base);
    ~TrafficTraceWriter();

    TrafficTraceWriter(const TrafficTraceWriter &) = delete;
    TrafficTraceWriter &operator=(const TrafficTraceWriter &) = delete;

    /** Register a client stream; returns its id (dense, in order). */
    unsigned addClient(const std::string &name);

    /** A frame's render phase starts now. */
    void beginFrame(Tick now);

    /**
     * The current frame's render phase ended; @p work is its total
     * work measure (shaded fragments) for DASH progress replay.
     */
    void endFrame(Tick now, double work);

    /**
     * Record one transaction the moment its L1 accepted it. Records
     * arriving after endFrame (LSU drain tails) stay attributed to
     * the last begun frame; records before the first beginFrame are
     * dropped (counted in droppedRecords()).
     */
    void record(unsigned client, Tick now, Addr addr, AccessKind kind,
                bool write);

    /** Write the trace directory; implicit in the destructor. */
    void finalize();

    const std::string &dir() const { return _dir; }
    std::uint64_t numRecords() const { return _numRecords; }
    std::uint64_t droppedRecords() const { return _trace.dropped; }
    unsigned numFrames() const
    {
        return static_cast<unsigned>(_trace.frameStart.size());
    }

  private:
    std::string _dir;
    TrafficTraceData _trace;
    std::uint64_t _numRecords = 0;
    Tick _lastTick = 0;
    bool _finalized = false;
};

/**
 * Loads a trace directory into memory: the frame table plus each
 * client's transaction list in recorded order.
 */
class TrafficTraceReader
{
  public:
    explicit TrafficTraceReader(const std::string &dir);

    const std::string &dir() const { return _dir; }
    const std::string &label() const { return _trace.label; }
    Addr fbBase() const { return _trace.fbBase; }

    unsigned numFrames() const
    {
        return static_cast<unsigned>(_trace.frameWork.size());
    }

    /** Total work (shaded fragments) of frame @p f in the capture. */
    double frameWork(unsigned f) const { return _trace.frameWork.at(f); }

    /** Captured render start/end ticks of frame @p f. */
    Tick frameStart(unsigned f) const { return _trace.frameStart.at(f); }
    Tick frameEnd(unsigned f) const { return _trace.frameEnd.at(f); }

    unsigned numClients() const
    {
        return static_cast<unsigned>(_trace.clients.size());
    }

    const std::string &clientName(unsigned c) const
    {
        return _trace.clients.at(c).name;
    }

    /** Client @p c's transactions, in recorded (issue) order. */
    const std::vector<TraceTxn> &clientTxns(unsigned c) const
    {
        return _trace.clients.at(c).txns;
    }

    std::uint64_t numRecords() const;

  private:
    std::string _dir;
    TrafficTraceData _trace;
};

} // namespace emerald::mem

#endif // EMERALD_MEM_TRAFFIC_TRACE_HH
