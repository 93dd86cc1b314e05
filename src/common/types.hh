/**
 * @file
 * Fundamental scalar types and enums shared by every module.
 */

#ifndef LF_COMMON_TYPES_HH
#define LF_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace lf {

/** A virtual (instruction) address in the simulated machine. */
using Addr = std::uint64_t;

/** A count of simulated core clock cycles. */
using Cycles = std::uint64_t;

/** Simulated energy in microjoules. */
using MicroJoules = double;

/** Simulated time in picoseconds (cycles / frequency). */
using Picoseconds = std::uint64_t;

/** Hardware thread identifier within one physical core (0 or 1). */
using ThreadId = int;

constexpr ThreadId kInvalidThread = -1;

/** LRU rank an invalid cache line contributes to a canonical state
 *  key (sim/period_skip.hh): its stale stamp orders nothing. */
constexpr std::uint64_t kNoRank = ~std::uint64_t{0};

/**
 * The micro-op delivery path taken through the processor frontend.
 *
 * Every retired micro-op is attributed to exactly one of these paths,
 * mirroring the MITE / DSB / LSD distinction the paper exploits.
 */
enum class DeliveryPath : std::uint8_t {
    MITE = 0,  //!< Legacy decode pipeline (fetch + predecode + decode).
    DSB = 1,   //!< Decoded Stream Buffer (micro-op cache) hit.
    LSD = 2,   //!< Loop Stream Detector replay from the IDQ.
};

/** Human-readable name for a DeliveryPath. */
const char *toString(DeliveryPath path);

/** Number of distinct delivery paths. */
constexpr int kNumDeliveryPaths = 3;

} // namespace lf

#endif // LF_COMMON_TYPES_HH
