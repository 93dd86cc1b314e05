/**
 * @file
 * The frontend IPC side channel (Sec. XI-A) and the fingerprinting
 * study harness (Sec. XI-B/C, Figs. 11 and 12).
 *
 * The attacker loops over 100 nop instructions on one hardware thread
 * (two i-cache lines; fits the DSB, exceeds the LSD) while the victim
 * runs on the sibling thread, and samples its *own* instructions per
 * cycle at a low rate. The shared MITE and delivery mux make the
 * attacker's IPC waveform a function of the victim's frontend
 * footprint over time: no performance counters, no victim
 * measurement, no cache evictions, robust to DSB/LSD partitioning.
 *
 * Traces are compared with Euclidean distance: intra-distance (same
 * victim, different runs) stays far below inter-distance (different
 * victims), which is what makes classification work.
 */

#ifndef LF_FINGERPRINT_SIDE_CHANNEL_HH
#define LF_FINGERPRINT_SIDE_CHANNEL_HH

#include <string>
#include <vector>

#include "defense/defense.hh"
#include "fingerprint/workloads.hh"
#include "sim/cpu_model.hh"

namespace lf {

struct TraceConfig
{
    int samples = 100;           //!< IPC samples per trace.
    Cycles sampleCycles = 50000; //!< Simulated cycles per sample
                                 //!< (compressed stand-in for the
                                 //!< paper's 10 Hz wall-clock rate).
    int attackerNops = 100;      //!< Attacker loop body size.
    double ipcNoiseStddev = 0.02; //!< Timer-quantization noise on IPC.
    double phaseJitterFrac = 0.02; //!< Run-to-run phase length jitter.
};

/**
 * Record the attacker's IPC trace while @p victim runs on the sibling
 * thread. @p seed varies noise and phase jitter (a different run of
 * the same victim). @p defense deploys frontend mitigations
 * (src/defense) on the attacked machine: the core is armed before the
 * trace, each IPC sample is one defense slot (flush quanta, index
 * re-salting), and observable smoothing pads the sampled IPC. The
 * attacker's loop deliberately exceeds the LSD and encodes no DSB
 * state, so DSB/LSD partitioning leaves its waveform intact — the
 * Sec. XI robustness claim.
 */
std::vector<double> attackerIpcTrace(const CpuModel &model,
                                     const VictimWorkload &victim,
                                     const TraceConfig &config,
                                     std::uint64_t seed,
                                     const DefenseSpec &defense =
                                         DefenseSpec{});

/** Solo-attacker baseline IPC (no victim co-running). */
double attackerBaselineIpc(const CpuModel &model,
                           const TraceConfig &config);

/** Result of a fingerprinting study over a workload library. */
struct FingerprintStudy
{
    std::vector<std::string> names;
    /** traces[w][r]: run r of workload w. */
    std::vector<std::vector<std::vector<double>>> traces;
    double meanIntraDistance = 0.0;
    double meanInterDistance = 0.0;
    /** Mean pairwise distance between workloads (inter) and between
     *  runs (diagonal, intra). */
    std::vector<std::vector<double>> distanceMatrix;
    /** Nearest-reference classification accuracy over all runs. */
    double classificationAccuracy = 0.0;
};

/**
 * Run @p runsPerWorkload traces of every workload and compute the
 * intra/inter distance statistics of Figs. 11-12, optionally with
 * every trace recorded on a machine deploying @p defense. The traces
 * are recorded on up to std::thread::hardware_concurrency() threads,
 * the caller among them; the study is the same to the byte at any
 * thread count.
 */
FingerprintStudy runFingerprintStudy(const CpuModel &model,
                                     const std::vector<VictimWorkload> &
                                         workloads,
                                     const TraceConfig &config,
                                     int runs_per_workload = 3,
                                     std::uint64_t seed_base = 1000,
                                     const DefenseSpec &defense =
                                         DefenseSpec{});

} // namespace lf

#endif // LF_FINGERPRINT_SIDE_CHANNEL_HH
