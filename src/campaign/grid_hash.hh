/**
 * @file
 * Canonical serialization and content hashes for campaign identity.
 *
 * A campaign's files (manifest, per-shard results, checkpoints, cache
 * entries) all carry the **grid hash**: a 64-bit FNV-1a digest of a
 * canonical, versioned text serialization of the SweepSpec — every
 * field in a fixed order, channels/cpus/patterns/axes included,
 * doubles rendered round-trip-exact. Two SweepSpecs have the same
 * grid hash iff they expand to the same trial batch, so a checkpoint
 * or shard file can never be silently applied to a different
 * campaign, and a manifest that parses but was bit-flipped in a spec
 * field is caught by recomputing the hash.
 *
 * The **trial key** is the same idea at per-trial granularity: a
 * digest of one fully-expanded ExperimentSpec (seed and trial index
 * included) that names one row of the result cache — equal keys mean
 * "this exact trial", because trials are pure functions of their
 * spec. The **cell key** digests the spec without seed and trial
 * index (cellKeyOf(), the identity sweeps aggregate by) and names
 * one result-cache entry, which holds all of that cell's stored
 * trials.
 */

#ifndef LF_CAMPAIGN_GRID_HASH_HH
#define LF_CAMPAIGN_GRID_HASH_HH

#include <cstdint>
#include <string>

#include "run/sweep.hh"

namespace lf {

/** 64-bit FNV-1a over @p text. */
std::uint64_t fnv1a64(const std::string &text);

/** Fixed-width lowercase-hex rendering of a 64-bit hash. */
std::string hashHex(std::uint64_t hash);

/**
 * The canonical text form of @p spec hashed by gridHash(): versioned,
 * every field in fixed order, values rendered round-trip-exact. Two
 * specs serialize identically iff they describe the same grid.
 */
std::string canonicalSweepText(const SweepSpec &spec);

/** 16-hex-digit content hash identifying the sweep grid. */
std::string gridHash(const SweepSpec &spec);

/**
 * Canonical text form of one fully-expanded trial spec (seed, trial
 * index, overrides and all) hashed by trialKey().
 */
std::string canonicalTrialText(const ExperimentSpec &spec);

/** 16-hex-digit content address of one trial — a result-cache row
 *  key: a pair of trials share a key iff they share the whole spec
 *  (seed included), in which case they share the result too. */
std::string trialKey(const ExperimentSpec &spec);

/** 16-hex-digit hash of cellKeyOf(@p spec) — the result-cache entry
 *  key: every trial of one sweep cell, whatever its seed or trial
 *  index, shares it. */
std::string cellKey(const ExperimentSpec &spec);

} // namespace lf

#endif // LF_CAMPAIGN_GRID_HASH_HH
