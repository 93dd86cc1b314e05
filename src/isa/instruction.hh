/**
 * @file
 * x86-lite static instruction representation.
 *
 * The simulator does not interpret operand semantics; it models the
 * *frontend-relevant* properties of each instruction: its byte length
 * (which windows/cache lines it occupies), its micro-op expansion, its
 * prefixes (notably the 0x66 Length Changing Prefix the paper's
 * slow-switch attack abuses), and its control-flow behaviour.
 */

#ifndef LF_ISA_INSTRUCTION_HH
#define LF_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace lf {

/** The subset of x86 operations the workloads in the paper need. */
enum class Opcode : std::uint8_t {
    MOV_RR,    //!< mov r64, r64 — the paper's mix-block filler.
    ADD_RR,    //!< add r64, r64 — Fig. 4 / slow-switch workloads.
    ADD_LCP,   //!< 66-prefixed add r16, r16 (length changing prefix).
    NOP,       //!< 1-byte nop — the fingerprinting attacker's filler.
    JMP,       //!< Unconditional direct jmp rel32.
    JCC,       //!< Conditional direct branch (Spectre gadget).
    LOAD,      //!< mov r64, [mem] — Spectre / L1D baselines.
    STORE,     //!< mov [mem], r64.
    CLFLUSH,   //!< clflush [mem] — Flush+Reload baselines.
    LFENCE,    //!< Serializing fence.
    HALT,      //!< Simulator pseudo-op: thread stops at this point.
};

const char *toString(Opcode op);

/** Default encoded byte length for an opcode. */
std::uint8_t defaultLength(Opcode op);

/** Default micro-op expansion count for an opcode. */
std::uint8_t defaultUops(Opcode op);

/**
 * One statically laid-out instruction in a Program.
 *
 * Control flow: JMP always transfers to target. JCC consults a
 * condition source at execution time (see Program::CondFn). All other
 * opcodes fall through to addr + length.
 */
struct StaticInst
{
    Opcode op = Opcode::NOP;
    Addr addr = 0;             //!< Virtual address of the first byte.
    std::uint8_t length = 1;   //!< Encoded length in bytes.
    std::uint8_t uops = 1;     //!< Micro-ops produced when decoded.
    bool lcp = false;          //!< Carries a length-changing prefix.
    Addr target = 0;           //!< Branch target (JMP / JCC).
    Addr memAddr = 0;          //!< Data address (LOAD/STORE/CLFLUSH).
    int condId = 0;            //!< Condition selector for JCC.

    bool isBranch() const { return op == Opcode::JMP || op == Opcode::JCC; }
    bool isCondBranch() const { return op == Opcode::JCC; }
    bool isMem() const
    {
        return op == Opcode::LOAD || op == Opcode::STORE;
    }
    bool isHalt() const { return op == Opcode::HALT; }

    /** Address of the byte after this instruction. */
    Addr nextAddr() const { return addr + length; }

    /** Debug rendering, e.g. "0x41880: mov (5B, 1uop)". */
    std::string toString() const;
};

} // namespace lf

#endif // LF_ISA_INSTRUCTION_HH
