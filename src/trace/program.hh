/**
 * @file
 * Execution-driven trace builder.
 *
 * A Program is written against this DSL exactly like hand-tuned
 * emulation-library code (the paper's methodology): every call both
 * executes the operation functionally -- registers and the MemImage hold
 * real values, so kernel outputs can be verified bit-exactly -- and
 * appends a dynamic InstRecord to the trace that the timing core replays.
 *
 * Control flow runs natively in C++; branch-emitting helpers record the
 * resolved direction together with a static site id (derived from the
 * call site via std::source_location) so the branch predictor sees a
 * realistic static/dynamic mix.
 *
 * Scalar code (address arithmetic, loop overhead, entropy coding...) must
 * be spelled out instruction by instruction: that overhead is precisely
 * what the paper's 1-D/2-D comparison is about.
 */

#ifndef VMMX_TRACE_PROGRAM_HH
#define VMMX_TRACE_PROGRAM_HH

#include <functional>
#include <source_location>
#include <vector>

#include "common/memimage.hh"
#include "emu/accum.hh"
#include "emu/vword.hh"
#include "isa/inst.hh"
#include "isa/simd_kind.hh"
#include "trace/trace_stream.hh"

namespace vmmx
{

/** Handle to an allocated scalar (integer) register. */
struct SReg
{
    u8 idx = 0xff;
    bool valid() const { return idx != 0xff; }
};

/** Handle to an allocated SIMD / matrix register. */
struct VR
{
    u8 idx = 0xff;
    bool valid() const { return idx != 0xff; }
};

/** Handle to a packed accumulator. */
struct AR
{
    u8 idx = 0xff;
    bool valid() const { return idx != 0xff; }
};

class Program
{
  public:
    Program(MemImage &mem, SimdKind kind);
    /** A Program that streams every record to @p sink (streamTo()). */
    Program(MemImage &mem, SimdKind kind, TraceSink &sink);

    SimdKind kind() const { return kind_; }
    /** Bytes per packed word / matrix row (8 or 16). */
    unsigned width() const { return width_; }
    bool matrix() const { return isMatrix(kind_); }

    const std::vector<InstRecord> &trace() const { return trace_; }
    std::vector<InstRecord> takeTrace() { return std::move(trace_); }
    MemImage &mem() { return mem_; }

    /**
     * Stream the trace instead of accumulating it: from now on every
     * @p blockRecords emitted records go to @p sink as one block, and
     * finishStream() hands over the last, partial block.  The blocks
     * concatenate to exactly what takeTrace() would have returned.
     */
    void streamTo(TraceSink &sink, size_t blockRecords = traceBlockRecords);
    void finishStream();

    // ---- vectorised-region markers (Figure 6 attribution) ----
    void beginVectorRegion() { region_ = 1; }
    void endVectorRegion() { region_ = 0; }

    // ---- register allocation ----
    /** Allocation mark for scoped register reuse. */
    struct Frame
    {
        unsigned intMark;
        unsigned simdMark;
        unsigned accMark;
    };

    Frame mark() const { return {intAlloc_, simdAlloc_, accAlloc_}; }
    void release(const Frame &f);

    SReg sreg();
    VR vreg();
    AR areg();

    // ---- functional state accessors ----
    u64 val(SReg r) const { return intRegs_[check(r)]; }
    s64 sval(SReg r) const { return s64(intRegs_[check(r)]); }
    const VWord &vval(VR r) const { return vregs_[check(r)]; }
    const MatrixReg &mval(VR r) const { return mregs_[check(r)]; }
    const emu::Accum &aval(AR r) const { return accs_[check(r)]; }
    u16 vl() const { return vl_; }

    // ---- scalar integer operations ----
    void li(SReg d, u64 imm);
    void mov(SReg d, SReg s);
    void add(SReg d, SReg a, SReg b);
    void addi(SReg d, SReg a, s64 imm);
    void sub(SReg d, SReg a, SReg b);
    void mul(SReg d, SReg a, SReg b);
    void muli(SReg d, SReg a, s64 imm);
    void div(SReg d, SReg a, SReg b);
    void and_(SReg d, SReg a, SReg b);
    void andi(SReg d, SReg a, u64 imm);
    void or_(SReg d, SReg a, SReg b);
    void slli(SReg d, SReg a, unsigned sh);
    void srli(SReg d, SReg a, unsigned sh);
    void srai(SReg d, SReg a, unsigned sh);
    void sll(SReg d, SReg a, SReg b);
    void srl(SReg d, SReg a, SReg b);
    void sra(SReg d, SReg a, SReg b);
    void slt(SReg d, SReg a, SReg b);

    // ---- scalar memory (displacement addressing) ----
    /**
     * Scalar load of @p bytes at val(base) + disp.
     * @param signExtend sign-extend sub-64-bit values when true.
     * @return the loaded value (also written to @p d).
     */
    u64 load(SReg d, SReg base, s64 disp, unsigned bytes,
             bool signExtend = false);
    void store(SReg v, SReg base, s64 disp, unsigned bytes);

    // ---- control flow ----
    using Loc = std::source_location;

    /** Emit a conditional branch with resolved direction @p taken. */
    void branch(bool taken, SReg a, SReg b, Loc loc = Loc::current());

    /** Compare-and-branch helpers; @return the taken direction so the
     *  caller's native control flow can follow the same path. */
    bool brLt(SReg a, SReg b, Loc loc = Loc::current());
    bool brLtI(SReg a, s64 imm, Loc loc = Loc::current());
    bool brGeI(SReg a, s64 imm, Loc loc = Loc::current());
    bool brEqI(SReg a, s64 imm, Loc loc = Loc::current());

    void jump(Loc loc = Loc::current());
    void call(Loc loc = Loc::current());
    void ret(Loc loc = Loc::current());

    /**
     * Counted loop: for (i = 0; i < count; ++i) body(i).  Emits the
     * canonical loop overhead (init, increment, compare-and-branch per
     * iteration) that the matrix ISA is designed to eliminate.
     */
    void forLoop(s64 count, const std::function<void(SReg)> &body,
                 Loc loc = Loc::current());

    /** Raw emission hook used by the SIMD engines. */
    void emit(InstRecord rec);

    /** Static site id for a source location (memoised hash). */
    u32 siteId(const Loc &loc);

    // The SIMD engines manipulate register state directly.
    friend class Mmx;
    friend class Vmmx;

  private:
    u8
    check(SReg r) const
    {
        vmmx_assert(r.valid(), "use of unallocated scalar register");
        return r.idx;
    }

    u8
    check(VR r) const
    {
        vmmx_assert(r.valid(), "use of unallocated SIMD register");
        return r.idx;
    }

    u8
    check(AR r) const
    {
        vmmx_assert(r.valid(), "use of unallocated accumulator");
        return r.idx;
    }

    void aluOp(Opcode op, SReg d, SReg a, SReg b, u64 result);
    void aluOpImm(Opcode op, SReg d, SReg a, u64 result);
    bool condBranch(bool taken, SReg a, SReg b, const Loc &loc);

    MemImage &mem_;
    SimdKind kind_;
    unsigned width_;

    std::vector<InstRecord> trace_;
    /** Streaming target (null: accumulate) and its block size. */
    TraceSink *sink_ = nullptr;
    size_t blockRecords_ = 0;
    u16 region_ = 0;
    u16 vl_;

    unsigned intAlloc_ = 0;
    unsigned simdAlloc_ = 0;
    unsigned accAlloc_ = 0;
    unsigned maxSimdRegs_;

    /** file_name() pointer -> content hash (few distinct files). */
    std::vector<std::pair<const char *, u64>> fileHashes_;

    std::array<u64, 32> intRegs_{};
    std::array<VWord, 32> vregs_{};
    std::array<MatrixReg, 16> mregs_{};
    std::array<emu::Accum, 4> accs_{};
};

} // namespace vmmx

#endif // VMMX_TRACE_PROGRAM_HH
