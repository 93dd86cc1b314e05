/**
 * @file
 * Slot-transition graph: replay known transmission slots exactly.
 *
 * Every covert channel sends one bit per slot (Init -> Encode ->
 * Decode, Sec. V). The machine work of a slot draws nothing from any
 * Rng (measurement noise is drawn afterwards, from the raw
 * observable), so what a slot does depends only on the core's
 * canonical state at its start and on the bit. Within one sweep cell
 * the slot-start states are few: a cell is a small automaton over
 * bits, a digraph of out-degree at most two.
 *
 * SlotGraph is that automaton, learned while the cell runs:
 *
 *  - A node is a canonical core state at a slot start
 *    (Core::canonicalKey()). It keeps only the key, as a sparse diff
 *    against the cell's first node's key: the key plus the counters
 *    and clocks is a whole state (Core::loadCanonicalKey()).
 *  - An edge (node, bit) keeps the next node, the slot's raw
 *    observable (true cycle records, as the channel's machine work
 *    returned them) and the change of every counter and clock
 *    (Core::monotoneCounters()) over the slot.
 *
 * SlotWalk drives one transmission phase through the graph. A slot on
 * a known edge is not simulated and not hashed: the walk emits the
 * stored records, adds the stored deltas to its running counters and
 * moves to the next node, while the core itself stays where the walk
 * left it. The core is brought up to date (sync(): the node's key and
 * the running counters, through Core::loadCanonicalKey()) only where
 * something reads it: before a slot on an
 * unknown edge is simulated, before work at a slot's edge, and at the
 * end of the phase, before counters, snapshots or hooks look at the
 * core. A simulated slot becomes a new edge when it drew nothing.
 *
 * Work at a slot's edge that draws (the SGX MT channels' jittered
 * enclave entry before a 1 and exit after it) never replays:
 * SlotWalk::plain() runs it on the synced core and forgets the walked
 * node, so the next slot looks its start state up again. The slot's
 * machine work between the two edges still replays.
 *
 * Exactness rules:
 *  - Equal canonical keys mean equal behaviour from there on, so a
 *    known edge's records and counter deltas are what simulation
 *    would produce, at any absolute time. Keys are compared in full;
 *    the hash only finds candidates.
 *  - A revisit often comes at an earlier absolute cycle than the
 *    recording (every trial of a cell restarts from the same state).
 *    sync() therefore sets counters and clocks to start + the walked
 *    deltas and places LRU stamps and deadlines against those clocks,
 *    keeping every rank and deadline distance, with no unsigned wrap.
 *  - The caller bypasses the graph for any slot whose start touches
 *    the core or draws (Environment/Defense::slotActsOnCore()), and
 *    for channels whose slot work reads RAPL or times a whole enclave
 *    call (power, SGX non-MT).
 *  - A recorded slot that drew from an Rng disables the graph for
 *    the cell.
 *  - Node keys hold pointers into PreparedChains; the graph pins
 *    every decode bound at a node, and a decode the prepared-chain
 *    cache does not own disables the graph for the cell.
 *
 * One graph belongs to one sweep cell. Whoever runs the cell's trials
 * in sequence holds it (run/experiment.hh's CellGraph: a runner
 * worker, or one runExperiment() call) and lends it to one trial's
 * TrialContext at a time, so it is never shared between threads.
 */

#ifndef LF_SIM_SLOT_GRAPH_HH
#define LF_SIM_SLOT_GRAPH_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "frontend/prepared.hh"
#include "sim/core.hh"

namespace lf {

/** Most nodes one cell's graph keeps. Slots from states past the cap
 *  are simulated; known edges still replay. */
constexpr std::size_t kMaxSlotGraphNodes = 256;

/** A known slot: where it leads and what it produced. */
struct SlotEdge
{
    std::size_t next = 0;
    /** The raw observable: true cycle records, in order. */
    std::vector<Cycles> records;
    /** Change of every Core::monotoneCounters() entry. */
    std::vector<std::uint64_t> counterDelta;
};

class SlotGraph
{
  public:
    std::size_t nodes() const { return nodes_.size(); }

    /** Copy the edge leaving @p node on @p bit into @p out; false
     *  when it is unknown. */
    bool edge(std::size_t node, bool bit, SlotEdge &out) const;

    /** Node @p node's canonical key, rebuilt from its sparse diff. */
    void nodeKey(std::size_t node, std::vector<std::uint64_t> &out) const;

  private:
    friend class SlotWalk;

    /** An edge's next node and where its records (in records_) and
     *  counter deltas (counterWords_ of them, in deltas_) start. */
    struct Edge
    {
        long next = -1; //!< -1: unknown.
        std::size_t recordsFrom = 0;
        std::size_t recordsTo = 0;
        std::size_t deltaFrom = 0;
    };

    /**
     * A node's key is stored as changes against the first node's key,
     * aligned at the front below @c split and at the back from it on:
     * keys differ in length where a variable-length field (an LSD
     * body, a BPU map) grows or shrinks, and that shifts everything
     * after it.
     */
    struct Node
    {
        std::size_t words = 0; //!< Key length.
        std::size_t split = 0;
        std::size_t diffFrom = 0; //!< Changes in diffAt_/diffValue_.
        std::size_t diffTo = 0;
        Edge edges[2]; //!< Per bit.
    };

    /** The node of @p core's current state, added when new; -1 when
     *  the graph is disabled, full, or cannot pin a bound decode. */
    long intern(const Core &core);
    /** The first node's word that word @p i of @p node lines up
     *  with, or false when none does. */
    bool baseWord(const Node &node, std::size_t i,
                  std::uint64_t &word) const;
    bool pinBoundDecodes(const Core &core);

    std::vector<Node> nodes_;
    std::unordered_multimap<std::uint64_t, std::size_t> byHash_;
    std::vector<std::uint64_t> baseKey_;
    /** Every node's key changes and every edge's records and deltas,
     *  one pool each for the whole graph (few, large allocations). */
    std::vector<std::uint32_t> diffAt_;
    std::vector<std::uint64_t> diffValue_;
    std::vector<Cycles> records_;
    std::vector<std::uint64_t> deltas_;
    std::size_t counterWords_ = 0;
    std::vector<PreparedChainPtr> pins_;
    std::vector<std::uint64_t> scratch_;
    /** False once the cell proved unsuitable: a slot drew, or a bound
     *  decode could not be pinned. */
    bool enabled_ = true;
};

/** Slots of one trial: replayed from the graph or simulated. */
struct SlotTally
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

/**
 * One transmission phase's walk through a cell's graph. Construct it
 * on a live core; call sync() before anything reads the core again.
 */
class SlotWalk
{
  public:
    /** @p graph null: every slot runs its work plainly and nothing is
     *  counted. */
    SlotWalk(Core &core, SlotGraph *graph, SlotTally &tally);

    /**
     * One slot on @p bit. @p work is the slot's machine work: it runs
     * on the core and writes its raw observable into @p records. A
     * known edge is replayed into @p records instead.
     */
    void slot(bool bit, std::vector<Cycles> &records,
              const std::function<void()> &work);

    /**
     * Work at a slot's edge that is never replayed (it may draw): sync
     * the core, run @p work on it and forget the walked node, so the
     * next slot looks its start state up again.
     */
    void plain(const std::function<void()> &work);

    /** Bring the core to the walked state; a no-op when it is there. */
    void sync();

  private:
    Core &core_;
    SlotGraph *graph_;
    SlotTally &tally_;
    long node_ = -1;   //!< Node of the walked state; -1 unknown.
    bool live_ = true; //!< The core holds the walked state.
    std::vector<std::uint64_t> counters_; //!< Walked counters.
    std::vector<std::uint64_t> before_;
};

} // namespace lf

#endif // LF_SIM_SLOT_GRAPH_HH
