/**
 * @file
 * Program: a set of statically laid-out instructions addressable by
 * virtual address, plus the Assembler used to build one.
 */

#ifndef LF_ISA_PROGRAM_HH
#define LF_ISA_PROGRAM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace lf {

/**
 * An immutable-after-build instruction image.
 *
 * Instructions live at explicit virtual addresses; the frontend fetches
 * by address, so overlapping instructions are a build error. The image
 * is a flat address-sorted vector — at() is a binary search over
 * contiguous memory, not a node-based map walk, because the frontend
 * calls it once per decoded instruction. JCC conditions are resolved
 * through a user-supplied callback keyed by the instruction's condId
 * (defaults to never-taken).
 *
 * Every Program object carries a process-unique id (uid). Copies get a
 * fresh uid, moves keep theirs, and uids are never reused, so
 * downstream decode caches (the frontend's chunk tables) can memoise
 * by uid without risking aliasing through recycled pointers.
 */
class Program
{
  public:
    /** Condition callback: (condId, dynamic execution count) -> taken. */
    using CondFn = std::function<bool(int cond_id, std::uint64_t count)>;

    Program();
    Program(const Program &other);
    Program(Program &&other) noexcept;
    Program &operator=(const Program &other);
    Program &operator=(Program &&other) noexcept;

    /** Add an instruction; addresses must not overlap. */
    void add(const StaticInst &inst);

    /** Make room for @p n instructions (a builder that knows its size
     *  avoids the vector's doubling slack). */
    void reserve(std::size_t n) { insts_.reserve(n); }

    /** Instruction starting exactly at @p addr, or nullptr. */
    const StaticInst *at(Addr addr) const;

    /** Whether any instruction starts at @p addr. */
    bool contains(Addr addr) const { return at(addr) != nullptr; }

    /** Entry point (defaults to the lowest address added). */
    Addr entry() const;
    void setEntry(Addr addr) { entry_ = addr; hasEntry_ = true; }

    std::size_t numInsts() const { return insts_.size(); }
    bool empty() const { return insts_.empty(); }

    /** Process-unique identity of this image (see class comment). */
    std::uint64_t uid() const { return uid_; }

    /** Total bytes spanned, highest end minus lowest start. */
    std::uint64_t byteSpan() const;

    /** Sum of micro-ops over all instructions. */
    std::uint64_t totalUops() const;

    /** Condition callback used for JCC resolution. */
    void setCondFn(CondFn fn) { condFn_ = std::move(fn); }
    bool evalCond(int cond_id, std::uint64_t count) const;

    /** All instructions in address order (for tests/debug). */
    std::vector<const StaticInst *> instructions() const;

    /** Multi-line disassembly listing. */
    std::string disassemble() const;

  private:
    static std::uint64_t nextUid();

    std::vector<StaticInst> insts_; //!< Sorted by addr.
    std::uint64_t uid_;
    Addr entry_ = 0;
    bool hasEntry_ = false;
    CondFn condFn_;
};

/**
 * Sequential program builder.
 *
 * Maintains a cursor address; emit helpers append an instruction at the
 * cursor and advance it. org()/align() reposition the cursor, which is
 * how the mix-block builders control DSB set mapping and (mis)alignment.
 */
class Assembler
{
  public:
    explicit Assembler(Addr start = 0x400000);

    Addr cursor() const { return cursor_; }

    /** Move the cursor to an absolute address. */
    void org(Addr addr) { cursor_ = addr; }

    /** Advance the cursor to the next multiple of @p alignment. */
    void align(std::uint64_t alignment);

    /** @name Emit helpers (each returns the instruction's address). */
    /// @{
    Addr mov();
    Addr add();
    Addr addLcp();
    Addr nop();
    Addr jmp(Addr target);
    Addr jcc(Addr target, int cond_id);
    Addr load(Addr mem_addr);
    Addr store(Addr mem_addr);
    Addr clflush(Addr mem_addr);
    Addr lfence();
    Addr halt();
    /// @}

    /** Emit an arbitrary pre-filled instruction at the cursor. */
    Addr emit(StaticInst inst);

    /** Finish building; the assembler must not be reused after. */
    Program take();

    /** Access the program under construction (e.g. to set entry). */
    Program &program() { return prog_; }

  private:
    Program prog_;
    Addr cursor_;
};

} // namespace lf

#endif // LF_ISA_PROGRAM_HH
