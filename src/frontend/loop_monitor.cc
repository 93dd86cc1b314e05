#include "frontend/loop_monitor.hh"

#include <algorithm>

namespace lf {

LoopMonitor::LoopMonitor(const FrontendParams &params)
    : capacityUops_(params.lsdCapacityUops),
      warmupIters_(params.lsdWarmupIters)
{
}

void
LoopMonitor::recordChunk(const ChunkRecord &record)
{
    if (head_ == 0)
        return;
    if (accum_.size() >= kMaxChunks) {
        // Too large to be a capturable loop; abandon the candidate.
        reset();
        return;
    }
    accum_.push_back(record);
}

bool
LoopMonitor::alignmentCollides(int aligned_blocks, int misaligned_blocks)
{
    if (misaligned_blocks < 1)
        return false;
    return aligned_blocks + 2 * misaligned_blocks >= 9 ||
        misaligned_blocks >= 4;
}

void
LoopMonitor::census(int &aligned, int &misaligned) const
{
    aligned = 0;
    misaligned = 0;
    for (const auto &record : accum_) {
        if (!record.blockStart)
            continue;
        if ((record.key & Addr{31}) == 0)
            ++aligned;
        else
            ++misaligned;
    }
}

bool
LoopMonitor::recordTakenBranch(Addr branch_addr, Addr target)
{
    if (target != head_) {
        if (target > branch_addr) {
            // Forward jump: body structure, keep accumulating.
            return false;
        }
        // Backward branch to a new target: new loop candidate.
        head_ = target;
        stableIters_ = 0;
        accum_.clear();
        lastKeys_.clear();
        return false;
    }

    // An iteration of the candidate just closed. The key list is
    // built into a reused scratch buffer and swapped into lastKeys_ —
    // loop bodies close once per iteration on the hot path, and the
    // steady state must not allocate.
    scratchKeys_.clear();
    int uops = 0;
    bool all_dsb = true;
    for (const auto &record : accum_) {
        scratchKeys_.push_back(record.key);
        uops += record.uops;
        all_dsb = all_dsb && record.fromDsb;
    }

    // The count saturates at the warmup threshold: its only reader
    // is the `>= warmupIters_` test below, and a bounded counter lets
    // a steady loop's state repeat exactly (sim/period_skip.hh).
    if (!scratchKeys_.empty() && scratchKeys_ == lastKeys_) {
        if (stableIters_ < warmupIters_)
            ++stableIters_;
    } else {
        stableIters_ = scratchKeys_.empty() ? 0 : 1;
    }
    lastKeys_.swap(scratchKeys_);

    int aligned = 0;
    int misaligned = 0;
    census(aligned, misaligned);

    const bool qualified = !lastKeys_.empty() &&
        uops <= capacityUops_ && all_dsb &&
        !alignmentCollides(aligned, misaligned);

    const bool engage = qualified && stableIters_ >= warmupIters_;
    if (engage) {
        bodyKeys_ = lastKeys_;
        bodyUops_ = uops;
    }
    accum_.clear();
    return engage;
}

bool
LoopMonitor::bodyContains(Addr key) const
{
    return std::find(bodyKeys_.begin(), bodyKeys_.end(), key) !=
        bodyKeys_.end();
}

void
LoopMonitor::reset()
{
    head_ = 0;
    stableIters_ = 0;
    accum_.clear();
    lastKeys_.clear();
    bodyKeys_.clear();
    bodyUops_ = 0;
}

} // namespace lf
