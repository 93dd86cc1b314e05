#include "backend/backend.hh"

#include <algorithm>
#include <cstdint>

namespace lf {

Backend::Backend(FrontendEngine *engine)
    : engine_(engine), issueWidth_(engine->params().issueWidth)
{
}

void
Backend::tick()
{
    // Round-robin drain, computed arithmetically: the reference
    // behaviour pops one micro-op alternately from each non-empty IDQ
    // starting at rrStart_ until the issue budget or both queues run
    // dry. Popping from distinct queues commutes, so the per-thread
    // *counts* of that interleaving fully determine the outcome —
    // while both queues are non-empty the budget splits evenly (the
    // rrStart_ thread taking the odd micro-op), and whatever is left
    // drains from the longer queue. Computing the counts and popping
    // each thread once keeps the per-cycle cost at two bulk pops
    // instead of 2*issueWidth virtual-call round trips.
    static_assert(FrontendEngine::kNumThreads == 2,
                  "allocation below assumes two SMT threads");
    const int first = rrStart_;
    const int second = first ^ 1;
    const int a = engine_->idqOccupancy(first);
    const int b = engine_->idqOccupancy(second);
    int pops_first = 0;
    int pops_second = 0;
    const int paired = a < b ? a : b;
    if (issueWidth_ <= 2 * paired) {
        pops_first = (issueWidth_ + 1) / 2;
        pops_second = issueWidth_ / 2;
    } else {
        const int rest = issueWidth_ - 2 * paired;
        pops_first = paired + std::min(a - paired, rest);
        pops_second = paired + std::min(b - paired, rest);
    }
    std::uint64_t insts = 0;
    ++tickCycles_;
    if (pops_first > 0) {
        const int got = engine_->popUops(first, pops_first, insts);
        slotsUsed_ += static_cast<std::uint64_t>(got);
    }
    if (pops_second > 0) {
        const int got = engine_->popUops(second, pops_second, insts);
        slotsUsed_ += static_cast<std::uint64_t>(got);
    }
    rrStart_ = (rrStart_ + 1) % FrontendEngine::kNumThreads;
}

} // namespace lf
