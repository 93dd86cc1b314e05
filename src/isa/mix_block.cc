#include "isa/mix_block.hh"

#include "common/logging.hh"

namespace lf {

namespace {

Addr
blockStartAddr(Addr base, int set, const BlockSpec &spec)
{
    lf_assert((base & (kDsbAliasStride - 1)) == 0,
              "chain base 0x%llx is not 1 KiB aligned",
              static_cast<unsigned long long>(base));
    lf_assert(set >= 0 && set < static_cast<int>(kDsbNumSets),
              "DSB set %d out of range", set);
    Addr addr = base + static_cast<Addr>(spec.way) * kDsbAliasStride +
        static_cast<Addr>(set) * kDsbWindowBytes;
    if (spec.misaligned)
        addr += kMisalignOffset;
    return addr;
}

/** Emit one 4-mov + 1-jmp block at @p start, jumping to @p target. */
void
emitMixBlock(Assembler &as, Addr start, Addr target)
{
    as.org(start);
    for (int i = 0; i < 4; ++i)
        as.mov();
    as.jmp(target);
    // Block invariants from Sec. IV-D: 25 bytes, 5 micro-ops.
    lf_assert(as.cursor() - start == 25, "mix block must be 25 bytes");
}

ChainProgram
buildChainImpl(Addr base, int set, const std::vector<BlockSpec> &specs,
               bool looping)
{
    lf_assert(!specs.empty(), "chain needs at least one block");

    std::vector<Addr> starts;
    starts.reserve(specs.size());
    for (const auto &spec : specs)
        starts.push_back(blockStartAddr(base, set, spec));

    Assembler as(starts.front());
    for (std::size_t i = 0; i < starts.size(); ++i) {
        const bool last = i + 1 == starts.size();
        Addr next;
        if (!last) {
            next = starts[i + 1];
        } else if (looping) {
            next = starts.front();
        } else {
            // Jump to a HALT stub placed just after this block.
            next = starts[i] + 32;
        }
        emitMixBlock(as, starts[i], next);
    }
    if (!looping) {
        as.org(starts.back() + 32);
        as.halt();
    }

    ChainProgram chain;
    chain.program = as.take();
    chain.program.setEntry(starts.front());
    chain.blockStarts = std::move(starts);
    chain.loopHead = chain.blockStarts.front();
    // 5 instructions (4 mov + 1 jmp) per block, plus the HALT stub on
    // single-pass chains.
    chain.instsPerIteration = specs.size() * 5 + (looping ? 0 : 1);
    return chain;
}

} // namespace

std::vector<BlockSpec>
waySpan(int first_way, int count, bool misaligned)
{
    std::vector<BlockSpec> specs;
    specs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        specs.push_back({first_way + i, misaligned});
    return specs;
}

ChainProgram
buildMixBlockChain(Addr base, int set, const std::vector<BlockSpec> &specs)
{
    return buildChainImpl(base, set, specs, true);
}

ChainProgram
buildMixBlockPass(Addr base, int set, const std::vector<BlockSpec> &specs)
{
    return buildChainImpl(base, set, specs, false);
}

ChainProgram
buildAlignedMisalignedChain(Addr base, int set, int aligned_blocks,
                            int misaligned_blocks, int first_way)
{
    lf_assert(aligned_blocks >= 0 && misaligned_blocks >= 0 &&
              aligned_blocks + misaligned_blocks > 0,
              "bad block counts %d + %d", aligned_blocks,
              misaligned_blocks);
    std::vector<BlockSpec> specs;
    specs.reserve(static_cast<std::size_t>(aligned_blocks +
                                           misaligned_blocks));
    int way = first_way;
    for (int i = 0; i < aligned_blocks; ++i)
        specs.push_back({way++, false});
    for (int i = 0; i < misaligned_blocks; ++i)
        specs.push_back({way++, true});
    return buildMixBlockChain(base, set, specs);
}

ChainProgram
buildNopLoop(Addr base, int nops)
{
    lf_assert(nops > 0, "nop loop needs at least one nop");
    Assembler as(base);
    const Addr head = base;
    as.org(head);
    for (int i = 0; i < nops; ++i)
        as.nop();
    as.jmp(head);

    ChainProgram chain;
    chain.program = as.take();
    chain.program.setEntry(head);
    chain.blockStarts = {head};
    chain.loopHead = head;
    chain.instsPerIteration = static_cast<std::uint64_t>(nops) + 1;
    return chain;
}

ChainProgram
buildLcpAddLoop(Addr base, LcpPattern pattern, int r)
{
    lf_assert(r > 0, "LCP loop needs r > 0");
    Assembler as(base);
    const Addr head = base;
    as.org(head);
    switch (pattern) {
      case LcpPattern::Mixed:
        for (int i = 0; i < r; ++i) {
            as.add();
            as.addLcp();
        }
        break;
      case LcpPattern::Ordered:
        for (int i = 0; i < r; ++i)
            as.add();
        for (int i = 0; i < r; ++i)
            as.addLcp();
        break;
    }
    as.jmp(head);

    ChainProgram chain;
    chain.program = as.take();
    chain.program.setEntry(head);
    chain.blockStarts = {head};
    chain.loopHead = head;
    chain.instsPerIteration = 2 * static_cast<std::uint64_t>(r) + 1;
    return chain;
}

} // namespace lf
