#include "frontend/prepared.hh"

#include <atomic>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

namespace lf {

namespace {

std::atomic<bool> g_programCacheEnabled{true};

std::atomic<std::uint64_t> g_preparedHits{0};
std::atomic<std::uint64_t> g_preparedMisses{0};
thread_local std::uint64_t t_preparedHits = 0;
thread_local std::uint64_t t_preparedMisses = 0;

void
countHit()
{
    g_preparedHits.fetch_add(1, std::memory_order_relaxed);
    ++t_preparedHits;
}

void
countMiss()
{
    g_preparedMisses.fetch_add(1, std::memory_order_relaxed);
    ++t_preparedMisses;
}

struct PreparedCache
{
    std::mutex mutex;
    std::unordered_map<std::string, PreparedChainPtr> entries;
};

PreparedCache &
cache()
{
    static PreparedCache instance;
    return instance;
}

/**
 * Build-then-publish: chains are built outside the cache lock (builds
 * can take microseconds; lookups must not serialize behind them), and
 * a losing racer simply adopts the winner's entry.
 */
template <typename BuildFn>
PreparedChainPtr
memoise(const std::string &key, BuildFn &&build)
{
    if (!g_programCacheEnabled.load(std::memory_order_relaxed)) {
        countMiss();
        return build();
    }
    {
        std::lock_guard<std::mutex> lock(cache().mutex);
        auto it = cache().entries.find(key);
        if (it != cache().entries.end()) {
            countHit();
            return it->second;
        }
    }
    countMiss();
    PreparedChainPtr built = build();
    std::lock_guard<std::mutex> lock(cache().mutex);
    auto [it, inserted] = cache().entries.emplace(key, built);
    return it->second;
}

/** Wrap a freshly built ChainProgram with its decode. The table is
 *  built only after the chain has reached its final resting place, so
 *  its internal pointers into the program image never move. */
PreparedChainPtr
finishChain(ChainProgram &&chain, int line_uops)
{
    auto prepared = std::make_shared<PreparedChain>();
    prepared->chain = std::move(chain);
    prepared->table = ChunkTable(prepared->chain.program, line_uops);
    return prepared;
}

} // namespace

PreparedChainPtr
prepareMixBlockChain(Addr base, int set,
                     const std::vector<BlockSpec> &specs, int line_uops)
{
    std::ostringstream key;
    key << "mix|" << base << '|' << set << '|' << line_uops;
    for (const BlockSpec &spec : specs)
        key << '|' << spec.way << (spec.misaligned ? 'm' : 'a');
    return memoise(key.str(), [&] {
        return finishChain(buildMixBlockChain(base, set, specs),
                           line_uops);
    });
}

PreparedChainPtr
prepareAlignedMisalignedChain(Addr base, int set, int aligned_blocks,
                              int misaligned_blocks, int first_way,
                              int line_uops)
{
    std::ostringstream key;
    key << "am|" << base << '|' << set << '|' << aligned_blocks << '|'
        << misaligned_blocks << '|' << first_way << '|' << line_uops;
    return memoise(key.str(), [&] {
        return finishChain(
            buildAlignedMisalignedChain(base, set, aligned_blocks,
                                        misaligned_blocks, first_way),
            line_uops);
    });
}

PreparedChainPtr
prepareMixBlockPass(Addr base, int set,
                    const std::vector<BlockSpec> &specs, int line_uops)
{
    std::ostringstream key;
    key << "pass|" << base << '|' << set << '|' << line_uops;
    for (const BlockSpec &spec : specs)
        key << '|' << spec.way << (spec.misaligned ? 'm' : 'a');
    return memoise(key.str(), [&] {
        return finishChain(buildMixBlockPass(base, set, specs),
                           line_uops);
    });
}

PreparedChainPtr
prepareNopLoop(Addr base, int nops, int line_uops)
{
    std::ostringstream key;
    key << "nop|" << base << '|' << nops << '|' << line_uops;
    return memoise(key.str(), [&] {
        return finishChain(buildNopLoop(base, nops), line_uops);
    });
}

PreparedChainPtr
prepareLcpAddLoop(Addr base, LcpPattern pattern, int r, int line_uops)
{
    std::ostringstream key;
    key << "lcp|" << base << '|' << static_cast<int>(pattern) << '|' << r
        << '|' << line_uops;
    return memoise(key.str(), [&] {
        return finishChain(buildLcpAddLoop(base, pattern, r), line_uops);
    });
}

void
setProgramCacheEnabled(bool on)
{
    g_programCacheEnabled.store(on, std::memory_order_relaxed);
}

bool
programCacheEnabled()
{
    return g_programCacheEnabled.load(std::memory_order_relaxed);
}

std::uint64_t
preparedCacheHits()
{
    return g_preparedHits.load(std::memory_order_relaxed);
}

std::uint64_t
preparedCacheMisses()
{
    return g_preparedMisses.load(std::memory_order_relaxed);
}

std::uint64_t
preparedCacheThreadHits()
{
    return t_preparedHits;
}

std::uint64_t
preparedCacheThreadMisses()
{
    return t_preparedMisses;
}

std::size_t
programCacheSize()
{
    std::lock_guard<std::mutex> lock(cache().mutex);
    return cache().entries.size();
}

void
clearProgramCache()
{
    std::lock_guard<std::mutex> lock(cache().mutex);
    cache().entries.clear();
}

PreparedChainPtr
findPreparedChain(const Program *program, const ChunkTable *table)
{
    std::lock_guard<std::mutex> lock(cache().mutex);
    for (const auto &entry : cache().entries) {
        const PreparedChainPtr &prepared = entry.second;
        if (&prepared->chain.program == program &&
            &prepared->table == table)
            return prepared;
    }
    return nullptr;
}

} // namespace lf
