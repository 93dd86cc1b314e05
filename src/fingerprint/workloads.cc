#include "fingerprint/workloads.hh"

#include "common/logging.hh"

namespace lf {

namespace {

constexpr Addr kVictimBase = 0xa00000;

/**
 * Build a phase's hot loop: @p blocks sequential mix blocks (25 B in a
 * 32 B window each) with an LCP'd variant every so often, closed by a
 * backward jump.
 */
std::unique_ptr<Program>
buildPhaseProgram(const WorkloadPhase &phase)
{
    lf_assert(phase.footprintBlocks > 0, "phase needs blocks");
    lf_assert(phase.durationCycles > 0, "phase needs cycles");
    const int blocks = phase.footprintBlocks;
    const int lcp_stride = phase.lcpPer32Blocks > 0
        ? std::max(1, 32 / phase.lcpPer32Blocks) : 0;

    Assembler as(kVictimBase);
    // Four body instructions and a jump per block.
    as.program().reserve(static_cast<std::size_t>(blocks) * 5);
    std::vector<Addr> starts;
    starts.reserve(static_cast<std::size_t>(blocks));
    for (int i = 0; i < blocks; ++i)
        starts.push_back(kVictimBase + static_cast<Addr>(i) * 32);

    for (int i = 0; i < blocks; ++i) {
        as.org(starts[static_cast<std::size_t>(i)]);
        const bool lcp_block = lcp_stride > 0 && (i % lcp_stride) == 0;
        if (lcp_block) {
            as.addLcp();
            for (int k = 0; k < 3; ++k)
                as.add();
        } else {
            for (int k = 0; k < 4; ++k)
                as.mov();
        }
        as.jmp(i + 1 < blocks
               ? starts[static_cast<std::size_t>(i + 1)] : starts[0]);
    }

    auto program = std::make_unique<Program>(as.take());
    program->setEntry(starts[0]);
    return program;
}

} // namespace

VictimWorkload::VictimWorkload(std::string name,
                               std::vector<WorkloadPhase> phases)
    : name_(std::move(name)), phases_(std::move(phases))
{
    lf_assert(!phases_.empty(), "workload %s has no phases",
              name_.c_str());
    programs_.reserve(phases_.size());
    for (const auto &phase : phases_)
        programs_.push_back(buildPhaseProgram(phase));
}

const WorkloadPhase &
VictimWorkload::phase(std::size_t i) const
{
    lf_assert(i < phases_.size(), "phase index out of range");
    return phases_[i];
}

const Program &
VictimWorkload::phaseProgram(std::size_t i) const
{
    lf_assert(i < programs_.size(), "phase index out of range");
    return *programs_[i];
}

Cycles
VictimWorkload::totalCycles() const
{
    Cycles total = 0;
    for (const auto &phase : phases_)
        total += phase.durationCycles;
    return total;
}

std::vector<VictimWorkload>
mobileWorkloads()
{
    std::vector<VictimWorkload> workloads;
    // Each entry: {label, footprintBlocks, lcpPer32Blocks, cycles}.
    workloads.emplace_back("camera", std::vector<WorkloadPhase>{
        {"capture", 320, 2, 400000},
        {"demosaic", 96, 0, 250000},
        {"encode", 480, 6, 500000},
        {"preview", 24, 0, 150000}});
    workloads.emplace_back("navigation", std::vector<WorkloadPhase>{
        {"gps-fix", 40, 0, 200000},
        {"route", 200, 1, 600000},
        {"render-map", 360, 3, 350000}});
    workloads.emplace_back("speech-recognition",
                           std::vector<WorkloadPhase>{
        {"frontend-dsp", 64, 0, 300000},
        {"acoustic-model", 420, 2, 700000},
        {"decoder", 150, 5, 300000}});
    workloads.emplace_back("text-render", std::vector<WorkloadPhase>{
        {"shape", 80, 8, 250000},
        {"rasterize", 180, 0, 350000},
        {"compose", 30, 0, 120000}});
    workloads.emplace_back("aes-crypto", std::vector<WorkloadPhase>{
        {"key-sched", 16, 0, 120000},
        {"rounds", 10, 0, 900000}});
    workloads.emplace_back("image-edit", std::vector<WorkloadPhase>{
        {"load", 260, 4, 250000},
        {"filter", 520, 0, 650000},
        {"save", 120, 6, 200000}});
    workloads.emplace_back("ml-inference", std::vector<WorkloadPhase>{
        {"preproc", 48, 0, 180000},
        {"gemm", 384, 0, 800000},
        {"softmax", 20, 0, 100000}});
    workloads.emplace_back("browser", std::vector<WorkloadPhase>{
        {"parse", 440, 10, 300000},
        {"layout", 280, 2, 250000},
        {"paint", 160, 0, 300000},
        {"js-jit", 560, 4, 400000}});
    workloads.emplace_back("game-engine", std::vector<WorkloadPhase>{
        {"physics", 130, 0, 280000},
        {"ai", 300, 3, 220000},
        {"render", 90, 0, 450000}});
    workloads.emplace_back("audio-playback", std::vector<WorkloadPhase>{
        {"decode-frame", 56, 1, 240000},
        {"mix", 14, 0, 300000},
        {"effects", 110, 0, 200000}});
    return workloads;
}

std::vector<VictimWorkload>
cnnWorkloads()
{
    std::vector<VictimWorkload> workloads;

    // AlexNet: a few large conv phases then fully-connected layers.
    workloads.emplace_back("AlexNet", std::vector<WorkloadPhase>{
        {"conv1-11x11", 480, 0, 650000},
        {"conv2-5x5", 360, 0, 500000},
        {"conv3-3x3", 280, 0, 380000},
        {"conv4-3x3", 280, 0, 380000},
        {"conv5-3x3", 240, 0, 330000},
        {"fc6", 100, 0, 450000},
        {"fc7", 100, 0, 420000},
        {"fc8", 60, 0, 200000}});

    // SqueezeNet: alternating squeeze (tiny) / expand (wide) fire
    // modules -> a high-frequency waveform.
    {
        std::vector<WorkloadPhase> phases;
        phases.push_back({"conv1", 300, 0, 300000});
        for (int fire = 2; fire <= 9; ++fire) {
            phases.push_back({"fire-squeeze", 36, 0, 120000});
            phases.push_back({"fire-expand", 330, 0, 220000});
        }
        phases.push_back({"conv10", 180, 0, 250000});
        workloads.emplace_back("SqueezeNet", std::move(phases));
    }

    // VGG: long, uniform 3x3 conv stacks.
    {
        std::vector<WorkloadPhase> phases;
        const int stack_blocks[5] = {420, 420, 400, 400, 380};
        for (int stage = 0; stage < 5; ++stage) {
            for (int layer = 0; layer < (stage < 2 ? 2 : 3); ++layer)
                phases.push_back({"conv3x3",
                                  stack_blocks[stage], 0, 430000});
            phases.push_back({"pool", 26, 0, 90000});
        }
        for (int fc = 0; fc < 3; ++fc)
            phases.push_back({"fc", 110, 0, 380000});
        workloads.emplace_back("VGG", std::move(phases));
    }

    // DenseNet: many short layers with growing concatenated widths.
    {
        std::vector<WorkloadPhase> phases;
        phases.push_back({"conv1", 280, 0, 250000});
        for (int block = 0; block < 4; ++block) {
            const int layers = 6 + block * 4;
            for (int layer = 0; layer < layers; ++layer) {
                phases.push_back({"dense-1x1",
                                  60 + block * 40 + layer * 4, 0,
                                  70000});
                phases.push_back({"dense-3x3",
                                  150 + block * 60, 0, 90000});
            }
            phases.push_back({"transition", 48, 0, 110000});
        }
        workloads.emplace_back("DenseNet", std::move(phases));
    }
    return workloads;
}

} // namespace lf
