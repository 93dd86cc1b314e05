/**
 * @file
 * Loop detection for the LSD.
 *
 * The monitor watches the stream of delivered chunks and taken
 * branches. When the same backward-branch target closes an identical
 * chunk sequence lsdWarmupIters times in a row, and the loop
 * *qualifies*, the engine may engage the LSD.
 *
 * Qualification encodes the paper's reverse-engineered behaviour:
 *  - total micro-ops <= 64 (Sec. IV-A);
 *  - every chunk was delivered from the DSB in the last iteration
 *    (the DSB is inclusive of the LSD);
 *  - the alignment rule of Sec. IV-G: with `a` aligned and `m`
 *    misaligned blocks the LSD collides iff
 *        m >= 1 && (a + 2m >= 9 || m >= 4).
 *    This single rule reproduces every positive case the paper lists
 *    ({7a+1m}, {5a+2m}, {6a+2m}, {3a+3m}, {4a+3m}, {5a+3m}, {4m}) and
 *    every negative one ({8a}, {4a}, {5a+1m}, {4a+2m}). The intuition:
 *    a misaligned block consumes two window-tracking entries in the
 *    LSD's 8-entry tracker (a + 2m > 8 overflows it), and 4+ split
 *    blocks thrash the tracker outright.
 */

#ifndef LF_FRONTEND_LOOP_MONITOR_HH
#define LF_FRONTEND_LOOP_MONITOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "frontend/params.hh"

namespace lf {

class LoopMonitor
{
  public:
    explicit LoopMonitor(const FrontendParams &params);

    /** One delivered chunk record. */
    struct ChunkRecord
    {
        Addr key = 0;
        int uops = 0;
        bool fromDsb = false;
        /** Entered via a taken branch (a "block" start in the paper's
         *  terminology). */
        bool blockStart = false;
    };

    /** Record one delivered chunk. */
    void recordChunk(const ChunkRecord &record);

    /**
     * Record a taken branch at @p branch_addr to @p target.
     *
     * Only *backward* branches can found or close a loop candidate;
     * forward taken branches (e.g. the block-to-block jumps inside a
     * mix-block chain) are body structure and keep the accumulation
     * going.
     *
     * @return true when this closes a stable, qualified loop iteration
     *         and the LSD may engage (subject to the engine's DSB
     *         residency and poison checks).
     */
    bool recordTakenBranch(Addr branch_addr, Addr target);

    /** Sec. IV-G alignment collision rule (see file comment). */
    static bool alignmentCollides(int aligned_blocks,
                                  int misaligned_blocks);

    /** Chunk keys of the last completed loop body. */
    const std::vector<Addr> &bodyKeys() const { return bodyKeys_; }
    int bodyUops() const { return bodyUops_; }
    bool bodyContains(Addr key) const;

    /** Loop head of the current candidate (0 when none). */
    Addr head() const { return head_; }
    /** Consecutive identical iterations closed so far, saturating at
     *  the warmup threshold (lsdWarmupIters). */
    int stableIters() const { return stableIters_; }

    /** Full reset: LSD flush, program switch, partition change. */
    void reset();

    /** List every state field once for the steady-state visitors
     *  (sim/period_skip.hh). All are exact; the saturating
     *  stableIters_ is what keeps a steady loop's state finite. The
     *  record count goes first, so an image loader can size accum_. */
    template <class V>
    void visitState(V &v)
    {
        v.exact(capacityUops_);
        v.exact(warmupIters_);
        v.exact(head_);
        v.exact(stableIters_);
        std::size_t records = accum_.size();
        v.exact(records);
        if (records != accum_.size())
            accum_.resize(records);
        for (ChunkRecord &record : accum_) {
            v.exact(record.key);
            v.exact(record.uops);
            v.exact(record.fromDsb);
            v.exact(record.blockStart);
        }
        v.exact(lastKeys_);
        v.exact(scratchKeys_);
        v.exact(bodyKeys_);
        v.exact(bodyUops_);
    }

  private:
    /** Aligned/misaligned block census of the current accumulation. */
    void census(int &aligned, int &misaligned) const;

    int capacityUops_;
    int warmupIters_;
    /** Detection gives up past this many chunks (not a loop). */
    static constexpr std::size_t kMaxChunks = 64;

    Addr head_ = 0;
    int stableIters_ = 0;
    std::vector<ChunkRecord> accum_;
    std::vector<Addr> lastKeys_;
    /** Reused key-list build buffer (recordTakenBranch hot path). */
    std::vector<Addr> scratchKeys_;
    std::vector<Addr> bodyKeys_;
    int bodyUops_ = 0;
};

} // namespace lf

#endif // LF_FRONTEND_LOOP_MONITOR_HH
