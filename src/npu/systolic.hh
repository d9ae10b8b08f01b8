/**
 * @file
 * Systolic-array PE-grid timing model (the compute half of the NPU).
 *
 * The model follows the weight-stationary tiled-GEMM shape of
 * gem5-aladdin's v2.0 systolic array (SNIPPETS.md): an R x C grid of
 * MACs computes one output tile per pass, with the K dimension split
 * into chunks sized by the double-buffered scratchpads. Convolutions
 * are expressed as im2col GEMMs (M = out pixels, N = out channels,
 * K = in channels x kernel window), so one layer list covers both.
 *
 * This is pure timing arithmetic — no events, no state. NpuTop walks
 * the precomputed tile table and drives the DMA engine and compute
 * event from it, which keeps the table reconstructible from params
 * alone (checkpoints never need to carry it).
 */

#ifndef EMERALD_NPU_SYSTOLIC_HH
#define EMERALD_NPU_SYSTOLIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace emerald::npu
{

/** PE-grid geometry and scratchpad capacities. */
struct SystolicParams
{
    /** PE grid rows (output-tile M extent). */
    unsigned rows = 16;
    /** PE grid columns (output-tile N extent). */
    unsigned cols = 16;
    /** Operand width (int8 inference). */
    unsigned elemBytes = 1;
    /** Accumulator width written back per output element. */
    unsigned accBytes = 4;
    /** Input scratchpad capacity (double-buffered: half per tile). */
    unsigned spInputKB = 32;
    /** Weight scratchpad capacity (double-buffered). */
    unsigned spWeightKB = 32;
    /** Output scratchpad capacity (double-buffered). */
    unsigned spOutputKB = 32;
};

/** One GEMM/conv layer: out[M x N] = in[M x K] * w[K x N]. */
struct NpuLayer
{
    std::string name;
    unsigned m;
    unsigned n;
    unsigned k;
};

/**
 * One unit of the NPU's execution walk: DMA in @p inBytes + @p
 * wBytes, run the array for @p cycles, and (on the final K-chunk of
 * an output tile) DMA out @p outBytes.
 */
struct TileWork
{
    Addr inAddr = 0;
    Addr wAddr = 0;
    Addr outAddr = 0;
    unsigned inBytes = 0;
    unsigned wBytes = 0;
    /** Non-zero only on the last K-chunk of an output tile. */
    unsigned outBytes = 0;
    std::uint64_t cycles = 0;
};

/** Named inference workloads (camera CNNs); fatal on unknown name. */
std::vector<NpuLayer> npuModelLayers(const std::string &name);

/** Timing calculator for one PE-grid configuration. */
class SystolicTiming
{
  public:
    explicit SystolicTiming(const SystolicParams &params);

    /**
     * K-chunk length for @p layer: the largest K slice whose input
     * and weight tiles both fit one half of their double-buffered
     * scratchpad (>= 1 so degenerate configs still make progress).
     */
    unsigned kChunk(const NpuLayer &layer) const;

    /**
     * Cycles for one tile pass over @p kc K elements: wavefront fill
     * plus drain across the grid diagonals, plus the streaming body.
     */
    std::uint64_t tileCycles(unsigned kc) const;

    /**
     * The full tile walk of @p model laid out from @p base: per-layer
     * input/weight/output regions packed in order, tiles in
     * m-tile / n-tile / k-chunk loop order with sequential (bursty,
     * coalescable) addresses inside each region.
     */
    std::vector<TileWork> tileWalk(const std::vector<NpuLayer> &model,
                                   Addr base) const;

    const SystolicParams &params() const { return _params; }

  private:
    SystolicParams _params;
};

} // namespace emerald::npu

#endif // EMERALD_NPU_SYSTOLIC_HH
