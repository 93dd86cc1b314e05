/**
 * @file
 * Builders for the paper's attack workloads (Sec. IV-D..IV-H).
 *
 * The canonical *instruction mix block* is 4 mov + 1 jmp: 25 bytes
 * (fits one 32-byte DSB window) decoding to 5 micro-ops (fits one DSB
 * line). Blocks are chained by their terminating jmp; chains that map
 * to the same DSB set are produced by spacing block starts by
 * kDsbAliasStride (= sets x window = 1024 B) so that addr[9:5] is
 * constant.
 */

#ifndef LF_ISA_MIX_BLOCK_HH
#define LF_ISA_MIX_BLOCK_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"

namespace lf {

/** Bytes per DSB window (one micro-op cache line covers one window). */
constexpr std::uint64_t kDsbWindowBytes = 32;

/** Number of DSB sets (single-thread mode). */
constexpr std::uint64_t kDsbNumSets = 32;

/** Address stride that preserves the DSB set index addr[9:5]. */
constexpr std::uint64_t kDsbAliasStride = kDsbNumSets * kDsbWindowBytes;

/** Byte offset used to misalign a block (half a window). */
constexpr std::uint64_t kMisalignOffset = kDsbWindowBytes / 2;

/** DSB set index of an address in single-thread (32-set) mode. */
inline std::uint64_t
dsbSetOf(Addr addr)
{
    return (addr >> 5) & (kDsbNumSets - 1);
}

/** One block position in a chain. */
struct BlockSpec
{
    int way = 0;            //!< Alias index: which 1 KiB copy to use.
    bool misaligned = false; //!< Offset the start by kMisalignOffset.
};

/** @p count consecutive ways from @p first_way, all aligned or all
 *  misaligned: the receiver/sender block sets of the channels. */
std::vector<BlockSpec> waySpan(int first_way, int count, bool misaligned);

/** A built chain: the program plus each block's start address. */
struct ChainProgram
{
    Program program;
    std::vector<Addr> blockStarts;
    Addr loopHead = 0;      //!< First block (the chain's entry).
    /** Architectural instructions retired by one pass over the loop
     *  body (used to drive iteration-counted execution). */
    std::uint64_t instsPerIteration = 0;
};

/**
 * Build a looping chain of instruction mix blocks.
 *
 * Each block is 4 mov + 1 jmp; block i's jmp targets block i+1 and the
 * final block jumps back to the first, forming an endless loop (run
 * length is controlled by the executor). All blocks map to DSB set
 * @p set (before misalignment): block i starts at
 * `base + spec.way * 1024 + set * 32 (+16 if misaligned)`.
 *
 * @param base Base address; its low 10 bits must be zero.
 * @param set Target DSB set in [0, 32).
 * @param specs Way/alignment of each block, in chain order.
 */
ChainProgram buildMixBlockChain(Addr base, int set,
                                const std::vector<BlockSpec> &specs);

/**
 * Convenience: a chain of @p aligned_blocks aligned blocks followed by
 * @p misaligned_blocks misaligned blocks, ways assigned sequentially
 * starting at @p first_way.
 */
ChainProgram buildAlignedMisalignedChain(Addr base, int set,
                                         int aligned_blocks,
                                         int misaligned_blocks,
                                         int first_way = 0);

/**
 * Build a non-looping (single-pass) chain: the final block's jmp
 * targets a HALT stub placed after the last block.
 */
ChainProgram buildMixBlockPass(Addr base, int set,
                               const std::vector<BlockSpec> &specs);

/**
 * The fingerprinting attacker's loop (Sec. XI-A): @p nops 1-byte nop
 * instructions plus a closing jmp. With the default 100 nops the loop
 * spans two 64-byte i-cache lines, does not fit the 64-entry LSD, but
 * fits the DSB.
 */
ChainProgram buildNopLoop(Addr base, int nops = 100);

/** LCP issue orders for the Fig. 4 / slow-switch workloads. */
enum class LcpPattern {
    Mixed,    //!< normal add / LCP add alternating (maximizes switches)
    Ordered,  //!< all normal adds, then all LCP adds
};

/**
 * Build the Fig. 4 loop: 2*r add instructions (r normal + r LCP'd in
 * the given pattern) plus a closing jmp.
 */
ChainProgram buildLcpAddLoop(Addr base, LcpPattern pattern, int r = 16);

} // namespace lf

#endif // LF_ISA_MIX_BLOCK_HH
