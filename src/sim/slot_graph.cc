#include "sim/slot_graph.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace lf {

bool
SlotGraph::edge(std::size_t node, bool bit, SlotEdge &out) const
{
    lf_assert(node < nodes_.size(), "slot graph node %zu out of range",
              node);
    const Edge &e = nodes_[node].edges[bit];
    if (e.next < 0)
        return false;
    out.next = static_cast<std::size_t>(e.next);
    out.records.assign(
        records_.begin() + static_cast<std::ptrdiff_t>(e.recordsFrom),
        records_.begin() + static_cast<std::ptrdiff_t>(e.recordsTo));
    out.counterDelta.assign(
        deltas_.begin() + static_cast<std::ptrdiff_t>(e.deltaFrom),
        deltas_.begin() +
            static_cast<std::ptrdiff_t>(e.deltaFrom + counterWords_));
    return true;
}

void
SlotGraph::nodeKey(std::size_t node, std::vector<std::uint64_t> &out) const
{
    lf_assert(node < nodes_.size(), "slot graph node %zu out of range",
              node);
    const Node &n = nodes_[node];
    out.resize(n.words);
    for (std::size_t i = 0; i < n.words; ++i)
        baseWord(n, i, out[i]);
    for (std::size_t i = n.diffFrom; i < n.diffTo; ++i)
        out[diffAt_[i]] = diffValue_[i];
}

bool
SlotGraph::baseWord(const Node &node, std::size_t i,
                    std::uint64_t &word) const
{
    // From the split on, word i lines up with the base word as far
    // from the base's end as i is from the key's end.
    const std::size_t at = i < node.split
        ? i
        : i + baseKey_.size() - node.words; // wraps when out of range
    if (at >= baseKey_.size())
        return false;
    word = baseKey_[at];
    return true;
}

bool
SlotGraph::pinBoundDecodes(const Core &core)
{
    const FrontendEngine &engine = core.frontend();
    for (ThreadId tid = 0; tid < FrontendEngine::kNumThreads; ++tid) {
        const Program *program = engine.boundProgram(tid);
        if (program == nullptr)
            continue;
        const ChunkTable *table = engine.boundTable(tid);
        bool pinned = false;
        for (const PreparedChainPtr &pin : pins_) {
            pinned = pinned ||
                (&pin->chain.program == program && &pin->table == table);
        }
        if (pinned)
            continue;
        PreparedChainPtr pin = findPreparedChain(program, table);
        if (!pin)
            return false;
        pins_.push_back(std::move(pin));
    }
    return true;
}

long
SlotGraph::intern(const Core &core)
{
    if (!enabled_)
        return -1;
    const std::uint64_t hash = core.canonicalHash();
    const auto [lo, hi] = byHash_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
        nodeKey(it->second, scratch_);
        if (core.hasCanonicalKey(scratch_))
            return static_cast<long>(it->second);
    }
    if (nodes_.size() >= kMaxSlotGraphNodes)
        return -1;
    if (!pinBoundDecodes(core)) {
        enabled_ = false;
        return -1;
    }
    Node node;
    core.canonicalKey(scratch_);
    if (nodes_.empty())
        baseKey_ = scratch_;
    // Pick the split that leaves the fewest changes: front-aligned
    // mismatches below it plus back-aligned mismatches from it on.
    const std::size_t n = scratch_.size();
    node.words = n;
    std::vector<std::uint32_t> back(n + 1, 0);
    std::uint64_t word = 0;
    node.split = 0; // back-aligned everywhere while counting
    for (std::size_t i = n; i-- > 0;) {
        const bool same = baseWord(node, i, word) && word == scratch_[i];
        back[i] = back[i + 1] + (same ? 0 : 1);
    }
    std::size_t best = back[0];
    std::size_t front = 0;
    for (std::size_t i = 0; i < n; ++i) {
        front += i < baseKey_.size() && baseKey_[i] == scratch_[i] ? 0 : 1;
        if (front + back[i + 1] < best) {
            best = front + back[i + 1];
            node.split = i + 1;
        }
    }
    node.diffFrom = diffAt_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (!baseWord(node, i, word) || word != scratch_[i]) {
            diffAt_.push_back(static_cast<std::uint32_t>(i));
            diffValue_.push_back(scratch_[i]);
        }
    }
    node.diffTo = diffAt_.size();
    nodes_.push_back(std::move(node));
    byHash_.emplace(hash, nodes_.size() - 1);
    return static_cast<long>(nodes_.size() - 1);
}

SlotWalk::SlotWalk(Core &core, SlotGraph *graph, SlotTally &tally)
    : core_(core), graph_(graph), tally_(tally)
{
}

void
SlotWalk::slot(bool bit, std::vector<Cycles> &records,
               const std::function<void()> &work)
{
    records.clear();
    if (graph_ == nullptr) {
        work();
        return;
    }
    if (live_ && node_ < 0)
        node_ = graph_->intern(core_);
    if (node_ >= 0) {
        const SlotGraph::Edge &edge =
            graph_->nodes_[static_cast<std::size_t>(node_)].edges[bit];
        if (edge.next >= 0) {
            if (live_) {
                core_.monotoneCounters(counters_);
                live_ = false;
            }
            const auto &pool = graph_->records_;
            records.assign(
                pool.begin() + static_cast<std::ptrdiff_t>(edge.recordsFrom),
                pool.begin() + static_cast<std::ptrdiff_t>(edge.recordsTo));
            const std::uint64_t *delta = &graph_->deltas_[edge.deltaFrom];
            for (std::size_t i = 0; i < counters_.size(); ++i)
                counters_[i] += delta[i];
            node_ = edge.next;
            ++tally_.hits;
            return;
        }
        sync();
    }

    // Unknown edge: simulate from the live core and record the slot.
    ++tally_.misses;
    const long from = node_;
    node_ = -1;
    if (from >= 0)
        core_.monotoneCounters(before_);
    const std::uint64_t draws = rngThreadDraws();
    work();
    if (from < 0)
        return;
    if (rngThreadDraws() != draws) {
        graph_->enabled_ = false;
        return;
    }
    const long to = graph_->intern(core_);
    if (to < 0)
        return;
    // counters_ holds the end counters until the next walk reads it.
    core_.monotoneCounters(counters_);
    lf_assert(counters_.size() == before_.size(),
              "counter count changed within a slot");
    if (graph_->deltas_.empty())
        graph_->counterWords_ = counters_.size();
    lf_assert(counters_.size() == graph_->counterWords_,
              "counter count differs between slots of one cell");
    SlotGraph::Edge &edge =
        graph_->nodes_[static_cast<std::size_t>(from)].edges[bit];
    edge.next = to;
    edge.recordsFrom = graph_->records_.size();
    graph_->records_.insert(graph_->records_.end(), records.begin(),
                            records.end());
    edge.recordsTo = graph_->records_.size();
    edge.deltaFrom = graph_->deltas_.size();
    for (std::size_t i = 0; i < counters_.size(); ++i)
        graph_->deltas_.push_back(counters_[i] - before_[i]);
    node_ = to;
}

void
SlotWalk::plain(const std::function<void()> &work)
{
    sync();
    work();
    node_ = -1;
}

void
SlotWalk::sync()
{
    if (live_)
        return;
    std::vector<std::uint64_t> &key = graph_->scratch_;
    graph_->nodeKey(static_cast<std::size_t>(node_), key);
    core_.loadCanonicalKey(key, counters_);
    live_ = true;
}

} // namespace lf
