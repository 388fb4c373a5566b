#include "trace/program.hh"

#include "common/saturate.hh"

namespace vmmx
{

Program::Program(MemImage &mem, SimdKind kind)
    : mem_(mem),
      kind_(kind),
      width_(rowBytes(kind)),
      vl_(u16(geometry(kind).maxVl)),
      maxSimdRegs_(geometry(kind).logicalRegs)
{
    trace_.reserve(1u << 16);
}

Program::Program(MemImage &mem, SimdKind kind, TraceSink &sink)
    : Program(mem, kind)
{
    streamTo(sink);
}

void
Program::release(const Frame &f)
{
    vmmx_assert(f.intMark <= intAlloc_ && f.simdMark <= simdAlloc_ &&
                    f.accMark <= accAlloc_,
                "register frame released out of order");
    intAlloc_ = f.intMark;
    simdAlloc_ = f.simdMark;
    accAlloc_ = f.accMark;
}

SReg
Program::sreg()
{
    if (intAlloc_ >= 32)
        fatal("out of logical scalar registers (32); use register frames");
    return {u8(intAlloc_++)};
}

VR
Program::vreg()
{
    if (simdAlloc_ >= maxSimdRegs_)
        fatal("out of logical SIMD registers (%u) for %s", maxSimdRegs_,
              name(kind_).c_str());
    return {u8(simdAlloc_++)};
}

AR
Program::areg()
{
    if (accAlloc_ >= 4)
        fatal("out of packed accumulators (4)");
    return {u8(accAlloc_++)};
}

void
Program::emit(InstRecord rec)
{
    rec.region = region_;
    trace_.push_back(rec);
    // blockRecords_ is 0 when accumulating, which a non-empty trace
    // never matches.
    if (trace_.size() == blockRecords_)
        sink_->put(trace_);
}

void
Program::streamTo(TraceSink &sink, size_t blockRecords)
{
    vmmx_assert(blockRecords > 0, "stream blocks must hold records");
    vmmx_assert(trace_.empty(), "streamTo() must precede the first emit");
    sink_ = &sink;
    blockRecords_ = blockRecords;
}

void
Program::finishStream()
{
    vmmx_assert(sink_ != nullptr, "finishStream() without streamTo()");
    if (!trace_.empty())
        sink_->put(trace_);
}

u32
Program::siteId(const Loc &loc)
{
    // FNV-1a over the identity of the call site.  The file name is hashed
    // by the *content* of its basename (memoised per string literal)
    // rather than by pointer: pointer values change with binary layout and
    // the path prefix changes with the checkout location, either of which
    // would make branch-predictor indexing -- and thus cycle counts --
    // vary across builds of identical source.
    const char *file = loc.file_name();
    u64 fileHash = 0;
    for (const auto &e : fileHashes_) {
        if (e.first == file) {
            fileHash = e.second;
            break;
        }
    }
    if (fileHash == 0) {
        const char *base = file;
        for (const char *c = file; *c; ++c)
            if (*c == '/' || *c == '\\')
                base = c + 1;
        fileHash = 1469598103934665603ull;
        for (const char *c = base; *c; ++c) {
            fileHash ^= u8(*c);
            fileHash *= 1099511628211ull;
        }
        fileHashes_.emplace_back(file, fileHash);
    }

    u64 h = 1469598103934665603ull;
    auto mix = [&h](u64 v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(fileHash);
    mix(loc.line());
    mix(loc.column());
    return u32(h ^ (h >> 32));
}

void
Program::aluOp(Opcode op, SReg d, SReg a, SReg b, u64 result)
{
    InstRecord r;
    r.op = op;
    r.dst = intReg(check(d));
    r.src0 = intReg(check(a));
    r.src1 = intReg(check(b));
    emit(r);
    intRegs_[d.idx] = result;
}

void
Program::aluOpImm(Opcode op, SReg d, SReg a, u64 result)
{
    InstRecord r;
    r.op = op;
    r.dst = intReg(check(d));
    r.src0 = intReg(check(a));
    emit(r);
    intRegs_[d.idx] = result;
}

void
Program::li(SReg d, u64 imm)
{
    InstRecord r;
    r.op = Opcode::LI;
    r.dst = intReg(check(d));
    emit(r);
    intRegs_[d.idx] = imm;
}

void
Program::mov(SReg d, SReg s)
{
    aluOpImm(Opcode::MOV, d, s, val(s));
}

void
Program::add(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::ADD, d, a, b, val(a) + val(b));
}

void
Program::addi(SReg d, SReg a, s64 imm)
{
    aluOpImm(Opcode::ADD, d, a, val(a) + u64(imm));
}

void
Program::sub(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::SUB, d, a, b, val(a) - val(b));
}

void
Program::mul(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::MUL, d, a, b, val(a) * val(b));
}

void
Program::muli(SReg d, SReg a, s64 imm)
{
    aluOpImm(Opcode::MUL, d, a, val(a) * u64(imm));
}

void
Program::div(SReg d, SReg a, SReg b)
{
    vmmx_assert(val(b) != 0, "division by zero in traced code");
    aluOp(Opcode::DIV, d, a, b, u64(sval(a) / sval(b)));
}

void
Program::and_(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::AND, d, a, b, val(a) & val(b));
}

void
Program::andi(SReg d, SReg a, u64 imm)
{
    aluOpImm(Opcode::AND, d, a, val(a) & imm);
}

void
Program::or_(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::OR, d, a, b, val(a) | val(b));
}

void
Program::slli(SReg d, SReg a, unsigned sh)
{
    aluOpImm(Opcode::SLL, d, a, val(a) << sh);
}

void
Program::srli(SReg d, SReg a, unsigned sh)
{
    aluOpImm(Opcode::SRL, d, a, val(a) >> sh);
}

void
Program::srai(SReg d, SReg a, unsigned sh)
{
    aluOpImm(Opcode::SRA, d, a, u64(asr64(sval(a), sh)));
}

void
Program::sll(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::SLL, d, a, b, val(a) << (val(b) & 63));
}

void
Program::srl(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::SRL, d, a, b, val(a) >> (val(b) & 63));
}

void
Program::sra(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::SRA, d, a, b, u64(asr64(sval(a), unsigned(val(b) & 63))));
}

void
Program::slt(SReg d, SReg a, SReg b)
{
    aluOp(Opcode::SLT, d, a, b, sval(a) < sval(b) ? 1 : 0);
}

u64
Program::load(SReg d, SReg base, s64 disp, unsigned bytes, bool signExtend)
{
    Addr a = val(base) + u64(disp);
    u64 v;
    switch (bytes) {
      case 1:
        v = signExtend ? u64(s64(s8(mem_.read8(a)))) : mem_.read8(a);
        break;
      case 2:
        v = signExtend ? u64(s64(s16(mem_.read16(a)))) : mem_.read16(a);
        break;
      case 4:
        v = signExtend ? u64(s64(s32(mem_.read32(a)))) : mem_.read32(a);
        break;
      case 8:
        v = mem_.read64(a);
        break;
      default:
        panic("bad scalar load size %u", bytes);
    }

    InstRecord r;
    r.op = Opcode::LOAD;
    r.dst = intReg(check(d));
    r.src0 = intReg(check(base));
    r.addr = a;
    r.rowBytes = u16(bytes);
    r.stride = s32(bytes);
    emit(r);
    intRegs_[d.idx] = v;
    return v;
}

void
Program::store(SReg v, SReg base, s64 disp, unsigned bytes)
{
    Addr a = val(base) + u64(disp);
    switch (bytes) {
      case 1: mem_.write8(a, u8(val(v))); break;
      case 2: mem_.write16(a, u16(val(v))); break;
      case 4: mem_.write32(a, u32(val(v))); break;
      case 8: mem_.write64(a, val(v)); break;
      default: panic("bad scalar store size %u", bytes);
    }

    InstRecord r;
    r.op = Opcode::STORE;
    r.src0 = intReg(check(v));
    r.src1 = intReg(check(base));
    r.addr = a;
    r.rowBytes = u16(bytes);
    r.stride = s32(bytes);
    emit(r);
}

bool
Program::condBranch(bool taken, SReg a, SReg b, const Loc &loc)
{
    InstRecord r;
    r.op = Opcode::BR;
    if (a.valid())
        r.src0 = intReg(a.idx);
    if (b.valid())
        r.src1 = intReg(b.idx);
    r.taken = taken;
    r.staticId = siteId(loc);
    emit(r);
    return taken;
}

void
Program::branch(bool taken, SReg a, SReg b, Loc loc)
{
    condBranch(taken, a, b, loc);
}

bool
Program::brLt(SReg a, SReg b, Loc loc)
{
    return condBranch(sval(a) < sval(b), a, b, loc);
}

bool
Program::brLtI(SReg a, s64 imm, Loc loc)
{
    return condBranch(sval(a) < imm, a, {}, loc);
}

bool
Program::brGeI(SReg a, s64 imm, Loc loc)
{
    return condBranch(sval(a) >= imm, a, {}, loc);
}

bool
Program::brEqI(SReg a, s64 imm, Loc loc)
{
    return condBranch(val(a) == u64(imm), a, {}, loc);
}

void
Program::jump(Loc loc)
{
    InstRecord r;
    r.op = Opcode::JMP;
    r.taken = true;
    r.staticId = siteId(loc);
    emit(r);
}

void
Program::call(Loc loc)
{
    InstRecord r;
    r.op = Opcode::CALL;
    r.taken = true;
    r.staticId = siteId(loc);
    emit(r);
}

void
Program::ret(Loc loc)
{
    InstRecord r;
    r.op = Opcode::RET;
    r.taken = true;
    r.staticId = siteId(loc);
    emit(r);
}

void
Program::forLoop(s64 count, const std::function<void(SReg)> &body, Loc loc)
{
    Frame f = mark();
    SReg i = sreg();
    SReg n = sreg();
    li(i, 0);
    li(n, u64(count));
    // do-while rotation: media loops always run at least once; a zero
    // count emits only the (not-taken) guard branch.
    if (count <= 0) {
        brLt(i, n, loc);
        release(f);
        return;
    }
    for (s64 k = 0; k < count; ++k) {
        body(i);
        addi(i, i, 1);
        brLt(i, n, loc);
    }
    release(f);
}

} // namespace vmmx
