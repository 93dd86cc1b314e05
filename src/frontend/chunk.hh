/**
 * @file
 * Decoded instruction runs ("chunks").
 *
 * A chunk is the unit the DSB caches and the delivery mux moves per
 * cycle: the maximal run of instructions that (a) start inside the
 * same 32-byte window as the run's entry point, (b) together produce
 * at most one DSB line's worth of micro-ops, and (c) contains at most
 * one (terminating) branch.
 *
 * Chunks are a pure function of (Program, entry address), so the whole
 * decode is precomputed once into an immutable ChunkTable: one chunk
 * per instruction start, stored flat (address-sorted chunk array +
 * one shared end-of-instruction flag pool) so a lookup is a binary
 * search and delivery walks contiguous memory. Because the table never
 * mutates after construction, one table can be shared read-only by
 * every worker thread simulating the same program — the basis of the
 * process-wide prepared-program cache (frontend/prepared.hh).
 *
 * A misaligned mix block (entered at window_base + 16) naturally
 * decomposes into two chunks in two adjacent DSB sets — the split that
 * drives the misalignment attacks.
 */

#ifndef LF_FRONTEND_CHUNK_HH
#define LF_FRONTEND_CHUNK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "frontend/params.hh"
#include "isa/program.hh"

namespace lf {

struct Chunk
{
    Addr start = 0;
    Addr fallThrough = 0;    //!< Address after the last instruction.
    /** Per-micro-op end-of-instruction markers (uops entries), a span
     *  into the owning ChunkTable's shared flag pool. */
    const std::uint8_t *endOfInst = nullptr;
    /** Terminating JMP/JCC (into the Program's image), or nullptr. */
    const StaticInst *branchInst = nullptr;
    int numInsts_ = 0;
    int uops = 0;
    int bytes = 0;
    int lcpCount = 0;        //!< Instructions carrying an LCP.
    bool endsBranch = false; //!< Last instruction is JMP/JCC.
    bool halt = false;       //!< Chunk is a HALT pseudo-op.

    /** Successor chunks, resolved once at table build so steady-state
     *  delivery follows a pointer instead of re-searching the table
     *  (pointers into the owning ChunkTable; null when the successor
     *  address has no chunk — identical to a failed lookup). */
    const Chunk *fallChunk = nullptr;     //!< At fallThrough.
    const Chunk *takenChunk = nullptr;    //!< At branch()->target.
    const Chunk *notTakenChunk = nullptr; //!< At branch()->nextAddr().

    /** LCP'd instructions predecode in a chunk of their own and the
     *  result is not cached in the DSB — this is the Sec. IV-H
     *  behaviour ("use of LCP forces the frontend to switch from
     *  issuing from DSB to issuing from MITE"). */
    bool cacheable() const { return lcpCount == 0; }

    int numInsts() const { return numInsts_; }
    const StaticInst *branch() const { return branchInst; }
    /** 32-byte window containing the entry point. */
    Addr window() const { return start & ~Addr{31}; }
    /** Whether the entry point is window-aligned. */
    bool aligned() const { return (start & Addr{31}) == 0; }
};

/**
 * The precomputed chunk decomposition of one Program.
 *
 * Immutable after construction (lookups are const and touch no
 * mutable state), so it is safe to share one table across threads.
 * The table holds pointers into the Program's instruction image; the
 * Program must outlive the table.
 */
class ChunkTable
{
  public:
    ChunkTable() = default;
    ChunkTable(const Program &program, int line_uops);

    /** Convenience: line capacity from the frontend parameters. */
    ChunkTable(const Program &program, const FrontendParams &params)
        : ChunkTable(program, params.dsbLineUops)
    {
    }

    /** Chunks live in the flag pool's and chunk array's buffers;
     *  copying would dangle the internal spans, moving is fine. */
    ChunkTable(const ChunkTable &) = delete;
    ChunkTable &operator=(const ChunkTable &) = delete;
    ChunkTable(ChunkTable &&) = default;
    ChunkTable &operator=(ChunkTable &&) = default;

    /**
     * Chunk starting at @p pc, or nullptr when no instruction starts
     * there (the thread halts).
     */
    const Chunk *get(Addr pc) const;

    std::size_t size() const { return chunks_.size(); }

  private:
    Chunk build(const Program &program, Addr pc);

    std::vector<Addr> starts_;  //!< Sorted chunk entry addresses.
    std::vector<Chunk> chunks_; //!< Parallel to starts_.
    /** Shared end-of-instruction flag pool all chunks' endOfInst
     *  spans point into. */
    std::vector<std::uint8_t> flags_;
    int lineUops_ = 0;
};

} // namespace lf

#endif // LF_FRONTEND_CHUNK_HH
