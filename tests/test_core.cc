/**
 * @file
 * Timing-core property tests: register pressure, issue-queue and ROB
 * stalls, branch prediction effects, and vector lane occupancy;
 * hand-timed micro-traces (independent ops at width, a dependency
 * chain, a full issue queue, a full ROB, a mispredict redirect, VTRANSP
 * lane-exchange occupancy) with exact cycle counts; the issue-queue
 * window against its linear-scan reference; and the rejection of core
 * overrides the model cannot run.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "common/rng.hh"
#include "sim/bpred.hh"
#include "sim/resources.hh"
#include "sim/simd_dispatch.hh"
#include "trace/program.hh"
#include "trace/vmmx.hh"

namespace vmmx
{
namespace
{

std::vector<InstRecord>
independentAlus(unsigned n)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg r[8];
    for (auto &x : r)
        x = p.sreg();
    for (unsigned i = 0; i < n; ++i)
        p.li(r[i % 8], i);
    return p.takeTrace();
}

/** The 2-way and 8-way MMX64 machines the hand-timed traces run on. */
std::vector<MachineConfig>
twoAndEightWay()
{
    return {makeMachine(SimdKind::MMX64, 2), makeMachine(SimdKind::MMX64, 8)};
}

// Hand-timed independent ops: sixteen `li`s to eight registers on the
// MMX64 cores of width w = 2 and 8 (fetch = rename = commit width w,
// front depth 3, w integer ALUs at 1-cycle latency, a 16/64-entry IQ and
// a 32/128-entry ROB that sixteen instructions never fill).  Group g --
// instructions wg .. wg + w - 1 -- is fetched at cycle g, renames at
// g + 3, issues at g + 4 on its w ALUs, is done at g + 5 and commits at
// g + 6.  So the last of the ceil(16 / w) groups commits at
// ceil(16 / w) + 5: 13 cycles at 2-way, 7 at 8-way.  Register pressure
// never bites: the 2-way core's 8 free integer registers get two back
// per commit cycle, so group g renames after groups 0 .. g - 3 committed
// and finds 8 - 2g + 2(g - 2) = 4 free.
TEST(Core, IpcBoundedByWidth)
{
    auto trace = independentAlus(16);
    std::vector<MachineConfig> machines = twoAndEightWay();
    RunResult two = runTrace(machines[0], trace);
    RunResult eight = runTrace(machines[1], trace);
    EXPECT_EQ(two.core.cycles, 13u);
    EXPECT_EQ(eight.core.cycles, 7u);
    for (const RunResult *r : {&two, &eight}) {
        EXPECT_EQ(r->core.instructions, 16u);
        EXPECT_EQ(r->core.renameStallRegs, 0u);
        EXPECT_EQ(r->core.renameStallIq, 0u);
        EXPECT_EQ(r->core.renameStallRob, 0u);
    }

    // The batched kernel over both machines times the same trace.
    auto batch = runTraceBatch(machines, trace);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batch[0] == two);
    EXPECT_TRUE(batch[1] == eight);
}

// Hand-timed dependency chain: `li a` and fifteen `addi a, a, 1` on the
// same two cores.  Instruction k renames at floor(k / w) + 3, but each
// addi waits for its predecessor: k is ready and issues at k + 4, is
// done at k + 5 and commits at k + 6, so the chain takes 16 + 5 = 21
// cycles at either width -- width buys nothing.  On the 2-way core the
// chain also outruns its 8 free integer registers: from k = 11 on, a
// rename waits for the commit of instruction k - 8 at cycle k - 2, later
// than floor(k / 2) + 3, so instructions 11 .. 15 each count one
// register stall, none of which delays the chain (k - 1 < k + 4).
TEST(Core, DependencyChainSerializes)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    p.li(a, 0);
    for (int i = 0; i < 15; ++i)
        p.addi(a, a, 1);
    EXPECT_EQ(p.val(a), 15u);

    std::vector<MachineConfig> machines = twoAndEightWay();
    RunResult two = runTrace(machines[0], p.trace());
    RunResult eight = runTrace(machines[1], p.trace());
    EXPECT_EQ(two.core.cycles, 21u);
    EXPECT_EQ(eight.core.cycles, 21u);
    EXPECT_EQ(two.core.renameStallRegs, 5u);
    EXPECT_EQ(eight.core.renameStallRegs, 0u);

    auto batch = runTraceBatch(machines, p.trace());
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batch[0] == two);
    EXPECT_TRUE(batch[1] == eight);
}

TEST(Core, MulLatencyLongerThanAdd)
{
    MemImage mem(1 << 16);
    Program pa(mem, SimdKind::MMX64);
    SReg a = pa.sreg();
    pa.li(a, 1);
    for (int i = 0; i < 500; ++i)
        pa.addi(a, a, 1);
    Program pm(mem, SimdKind::MMX64);
    SReg b = pm.sreg();
    pm.li(b, 1);
    for (int i = 0; i < 500; ++i)
        pm.muli(b, b, 1);
    auto machine = makeMachine(SimdKind::MMX64, 4);
    auto ra = runTrace(machine, pa.trace());
    auto rm = runTrace(machine, pm.trace());
    EXPECT_GT(rm.core.cycles, 2 * ra.core.cycles);
}

TEST(Core, PredictableBranchesCostLittle)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    p.li(a, 0);
    p.forLoop(2000, [&](SReg) { p.addi(a, a, 1); });
    auto r = runTrace(makeMachine(SimdKind::MMX64, 4), p.trace());
    EXPECT_GT(r.core.branches, 1900u);
    // The loop-closing branch is learned after a few iterations.
    EXPECT_LT(double(r.core.mispredicts) / double(r.core.branches), 0.05);
}

TEST(Core, RandomBranchesMispredict)
{
    MemImage mem(1 << 16);
    Rng rng(3);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    SReg b = p.sreg();
    p.li(a, 0);
    p.li(b, 0);
    u64 taken = 0;
    for (int i = 0; i < 2000; ++i) {
        bool t = rng.below(2) == 0;
        taken += t;
        p.branch(t, a, b);
    }
    auto slow = runTrace(makeMachine(SimdKind::MMX64, 4), p.trace());
    EXPECT_GT(double(slow.core.mispredicts) / double(slow.core.branches),
              0.25);
}

TEST(Core, VectorLengthDrivesOccupancy)
{
    MemImage mem(1 << 20);
    Addr buf = mem.alloc(4096);
    auto makeTrace = [&](u16 vl) {
        Program p(mem, SimdKind::VMMX128);
        Vmmx v(p);
        SReg base = p.sreg();
        p.li(base, buf);
        v.setvl(vl);
        VR x = p.vreg();
        VR y = p.vreg();
        VR d[6];
        for (auto &r : d)
            r = p.vreg();
        v.loadU(x, base, 0);
        v.loadU(y, base, 0);
        // Long independent sequence of vector adds (throughput-bound).
        for (int i = 0; i < 400; ++i)
            v.padd(d[i % 6], x, y, ElemWidth::B8);
        return p.takeTrace();
    };
    auto machine = makeMachine(SimdKind::VMMX128, 2);
    auto shortVl = runTrace(machine, makeTrace(4));
    auto longVl = runTrace(machine, makeTrace(16));
    // VL=16 occupies the 4-lane FU 4x longer than VL=4; the 2-way
    // VMMX machine's tiny rename headroom (20 physical vs 16 logical
    // registers, Table III) adds a constant per-op cost that compresses
    // the observable ratio below 4.
    EXPECT_GT(double(longVl.core.cycles),
              2.0 * double(shortVl.core.cycles));
}

TEST(Core, RegisterPressureStallsRename)
{
    // Many live SIMD registers with long-latency producers: the small
    // VMMX free list (20 phys - 16 logical at 2-way) must throttle.
    MemImage mem(1 << 20);
    Addr buf = mem.alloc(8192);
    Program p(mem, SimdKind::VMMX128);
    Vmmx v(p);
    SReg base = p.sreg();
    p.li(base, buf);
    v.setvl(16);
    VR r[8];
    for (auto &x : r)
        x = p.vreg();
    for (int i = 0; i < 64; ++i)
        v.loadU(r[i % 8], base, (i % 4) * 256);
    auto res = runTrace(makeMachine(SimdKind::VMMX128, 2), p.trace());
    EXPECT_GT(res.core.renameStallRegs, 0u);
}

TEST(Core, StoreToLoadDependencyHonored)
{
    MemImage mem(1 << 16);
    Addr buf = mem.alloc(64);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    SReg addr = p.sreg();
    p.li(addr, buf);
    p.li(a, 7);
    p.store(a, addr, 0, 8);
    p.load(a, addr, 0, 8);
    EXPECT_EQ(p.val(a), 7u);
    auto r = runTrace(makeMachine(SimdKind::MMX64, 4), p.trace());
    EXPECT_GT(r.core.cycles, 4u);
}

// Hand-timed IQ-full micro-trace: eight independent `li`s on the 2-way
// MMX64 core (fetch = rename = commit width 2, front depth 3, 2 integer
// ALUs, 1-cycle latency, 8 free integer registers, a 32-entry ROB).
// Pair p (instructions 2p and 2p+1) is fetched at cycle p and reaches
// rename at p + 3.
//  - Roomy queue (the default 16 entries): nothing stalls.  Pair p
//    renames at p + 3, is ready and issues at p + 4, is done at p + 5
//    and commits at p + 6, so the last pair commits at 3 + 6 = 9.
//  - core.iq = 2: pair 0 renames at 3, issues at 4 and fills the queue.
//    Every later instruction finds it full and waits for the earliest
//    resident entry to issue: its rename is that issue cycle + 1.  So
//    pair p renames at 2p + 3 and issues at 2p + 4, the pair before it
//    having issued at 2p + 2.  Each pair then commits at 2p + 6, the
//    last at 12, and instructions 2..7 each count one IQ stall.
TEST(Core, IssueQueueFullHandTimed)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg r[8];
    for (auto &x : r)
        x = p.sreg();
    for (auto &x : r)
        p.li(x, 1);

    Config small;
    small.set("core.iq", s64(2));
    std::vector<MachineConfig> machines = {
        makeMachine(SimdKind::MMX64, 2),
        makeMachine(SimdKind::MMX64, 2, small)};
    RunResult roomy = runTrace(machines[0], p.trace());
    EXPECT_EQ(roomy.core.cycles, 9u);
    EXPECT_EQ(roomy.core.renameStallIq, 0u);
    RunResult full = runTrace(machines[1], p.trace());
    EXPECT_EQ(full.core.cycles, 12u);
    EXPECT_EQ(full.core.renameStallIq, 6u);

    // The batched kernel models the same queue.
    auto batch = runTraceBatch(machines, p.trace());
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batch[0] == roomy);
    EXPECT_TRUE(batch[1] == full);
}

// Hand-timed ROB-full micro-trace: `li a, 12`, a 12-cycle `div q, a, a`
// and six independent `li`s (instructions 2..7) on the 2-way MMX64 core
// (2 integer ALUs; 8 free integer registers, which the eight writers use
// up exactly).  Pair p is fetched at p and reaches rename at p + 3.
// Instruction 0 issues at 4 and commits at 6; the div waits for it,
// issues at 5, holds one ALU until 17, is done at 17 and commits at 18.
// The li's behind it share the other ALU, one per cycle: li k issues at
// k + 3.
//  - Roomy ROB (the default 32 entries): nothing stalls.  The li's are
//    done by 11 but commit in order behind the div, two per cycle: li 2
//    at 18, li 3-4 at 19, li 5-6 at 20 and li 7 at 21.
//  - core.rob = 4: instruction k renames no earlier than one cycle after
//    instruction k - 4 commits.  Li 4 waits for instruction 0 and
//    renames at 7; li 5, 6 and 7 wait for the div and li 2 and 3 (18,
//    18, 19) and rename at 19, 19 and 20: four ROB stalls.  Li 4 still
//    commits at 19 with li 3.  Li 5 and 6 issue at 20 (the div has freed
//    its ALU) and li 7 at 21; they commit at 22, 22 and 23.  No branch:
//    no mispredicts.
TEST(Core, RobFullHandTimed)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    SReg q = p.sreg();
    SReg r[6];
    for (auto &x : r)
        x = p.sreg();
    p.li(a, 12);
    p.div(q, a, a);
    for (auto &x : r)
        p.li(x, 1);
    EXPECT_EQ(p.val(q), 1u);

    Config small;
    small.set("core.rob", s64(4));
    std::vector<MachineConfig> machines = {
        makeMachine(SimdKind::MMX64, 2),
        makeMachine(SimdKind::MMX64, 2, small)};
    RunResult roomy = runTrace(machines[0], p.trace());
    EXPECT_EQ(roomy.core.cycles, 21u);
    EXPECT_EQ(roomy.core.renameStallRob, 0u);
    RunResult full = runTrace(machines[1], p.trace());
    EXPECT_EQ(full.core.cycles, 23u);
    EXPECT_EQ(full.core.renameStallRob, 4u);
    for (const RunResult *res : {&roomy, &full}) {
        EXPECT_EQ(res->core.instructions, 8u);
        EXPECT_EQ(res->core.mispredicts, 0u);
        EXPECT_EQ(res->core.renameStallRegs, 0u);
        EXPECT_EQ(res->core.renameStallIq, 0u);
    }

    // The batched kernel models the same ROB.
    auto batch = runTraceBatch(machines, p.trace());
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batch[0] == roomy);
    EXPECT_TRUE(batch[1] == full);
}

// Hand-timed mispredict: `li a, 1`, a not-taken branch on a, and six
// independent `li`s on the 2-way MMX64 core, whose gshare table starts
// weakly taken, so the branch mispredicts.  The li and the branch are
// fetched at 0 and rename at 3; the li issues at 4 and is done at 5, so
// the branch issues at 5, is done at 6 and commits at 7.  Fetch resumes
// at the redirect, 6 + P for a mispredict penalty of P cycles: the six
// li's are fetched in pairs at 6 + P, 7 + P and 8 + P and, as in
// IpcBoundedByWidth, each pair commits 6 cycles after its fetch.  So
// the run takes 14 + P cycles: 22 at the default P = 8 and 16 on a
// copy with core.mispredict = 2.  Nothing waits at rename.
TEST(Core, MispredictPenaltyHandTimed)
{
    MemImage mem(1 << 16);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg();
    SReg r[6];
    for (auto &x : r)
        x = p.sreg();
    p.li(a, 1);
    p.branch(false, a, a);
    for (auto &x : r)
        p.li(x, 1);

    Config quick;
    quick.set("core.mispredict", s64(2));
    std::vector<MachineConfig> machines = {
        makeMachine(SimdKind::MMX64, 2),
        makeMachine(SimdKind::MMX64, 2, quick)};
    RunResult slow = runTrace(machines[0], p.trace());
    EXPECT_EQ(slow.core.cycles, 22u);
    RunResult fast = runTrace(machines[1], p.trace());
    EXPECT_EQ(fast.core.cycles, 16u);
    for (const RunResult *res : {&slow, &fast}) {
        EXPECT_EQ(res->core.instructions, 8u);
        EXPECT_EQ(res->core.branches, 1u);
        EXPECT_EQ(res->core.mispredicts, 1u);
        EXPECT_EQ(res->core.renameStallRob, 0u);
        EXPECT_EQ(res->core.renameStallRegs, 0u);
        EXPECT_EQ(res->core.renameStallIq, 0u);
    }

    // The batched kernel redirects fetch the same way.
    auto batch = runTraceBatch(machines, p.trace());
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_TRUE(batch[0] == slow);
    EXPECT_TRUE(batch[1] == fast);
}

// Hand-timed VTRANSP: `setvl 8`, `vzero v0` and N in {1, 2, 4}
// independent `vtransp vk, v0` on the 2-way VMMX128 core (fetch = rename
// = commit width 2, front depth 3, one SIMD issue slot, one 4-lane SIMD
// unit, 4 free SIMD registers).  A transpose holds the lane-exchange
// network for vl = 8 cycles, where an ordinary vl-8 op holds the unit
// for ceil(8 / 4) = 2.  Instruction k is fetched at floor(k / 2) and
// reaches rename at floor(k / 2) + 3.
//  - setvl takes no unit: it renames at 3, is done at 4, commits at 5.
//  - vzero renames at 3, issues at 4, holds the unit to 6, is done at
//    4 + 2 - 1 + 1 = 6 and commits at 7.
//  - Transpose j (instruction j + 2) waits for v0 and the unit: the
//    first issues at 6, each later one when the unit frees, 8 cycles
//    on, so j starts at 6 + 8j, is done at 14 + 8j and commits at
//    15 + 8j.  The run takes 15, 23 and 39 cycles for N = 1, 2, 4.  The
//    fourth transpose finds no free SIMD register (vzero and the first
//    three took all 4) and renames at 7, when vzero commits: one
//    register stall, hidden behind the unit.
//  - With core.simd_fus = 2 and core.simd_issue = 2 two transposes run
//    side by side: transposes 0 and 1 start at 6 and commit together at
//    15, 2 and 3 start at 14 and commit at 23.  So 15, 15 and 23
//    cycles, with the same one register stall at N = 4.
TEST(Core, TransposeOccupancyHandTimed)
{
    Config wide;
    wide.set("core.simd_fus", s64(2));
    wide.set("core.simd_issue", s64(2));
    std::vector<MachineConfig> machines = {
        makeMachine(SimdKind::VMMX128, 2),
        makeMachine(SimdKind::VMMX128, 2, wide)};
    const struct
    {
        unsigned n;
        u64 oneUnit, twoUnits;
    } cases[] = {{1, 15, 15}, {2, 23, 15}, {4, 39, 23}};

    for (const auto &c : cases) {
        MemImage mem(1 << 16);
        Program p(mem, SimdKind::VMMX128);
        Vmmx v(p);
        VR src = p.vreg();
        v.setvl(8);
        v.vzero(src);
        for (unsigned i = 0; i < c.n; ++i)
            v.vtransp(p.vreg(), src);

        std::vector<RunResult> alone;
        for (const MachineConfig &m : machines)
            alone.push_back(runTrace(m, p.trace()));
        EXPECT_EQ(alone[0].core.cycles, c.oneUnit) << "N = " << c.n;
        EXPECT_EQ(alone[1].core.cycles, c.twoUnits) << "N = " << c.n;
        for (const RunResult &r : alone) {
            EXPECT_EQ(r.core.instructions, c.n + 2);
            EXPECT_EQ(r.core.renameStallRegs, c.n == 4 ? 1u : 0u);
            EXPECT_EQ(r.core.renameStallIq, 0u);
            EXPECT_EQ(r.core.renameStallRob, 0u);
        }

        // Every step path this host runs times the same transposes.
        u32 runnable = simd::compiledMask() & simd::supportedMask();
        for (unsigned path = 0; path < simd::numPaths; ++path) {
            if (!(runnable & (1u << path)))
                continue;
            ASSERT_EQ(simd::setActivePath(simd::Path(path)), "");
            auto batch = runTraceBatch(machines, p.trace());
            ASSERT_EQ(batch.size(), 2u);
            EXPECT_TRUE(batch[0] == alone[0])
                << simd::pathName(simd::Path(path)) << " N = " << c.n;
            EXPECT_TRUE(batch[1] == alone[1])
                << simd::pathName(simd::Path(path)) << " N = " << c.n;
        }
        simd::setActivePathAuto();
    }
}

TEST(Resources, WidthGateLimitsPerCycle)
{
    WidthGate g(2);
    EXPECT_EQ(g.pass(5), 5u);
    EXPECT_EQ(g.pass(5), 5u);
    EXPECT_EQ(g.pass(5), 6u);
    EXPECT_EQ(g.pass(5), 6u);
    EXPECT_EQ(g.pass(9), 9u);
}

TEST(Resources, SlotPoolOccupancy)
{
    SlotPool pool(2);
    EXPECT_EQ(pool.acquire(0, 4), 0u);
    EXPECT_EQ(pool.acquire(0, 4), 0u);
    EXPECT_EQ(pool.acquire(0, 4), 4u);
    EXPECT_EQ(pool.acquire(10, 1), 10u);
}

TEST(Resources, IssueQueueBlocksWhenFull)
{
    IssueQueueModel iq(2);
    EXPECT_EQ(iq.waitForSpace(0), 0u);
    iq.insert(100);
    EXPECT_EQ(iq.waitForSpace(1), 1u);
    iq.insert(50);
    // Full: next rename waits for the earliest leaver (cycle 50).
    EXPECT_EQ(iq.waitForSpace(2), 51u);
}

/** The issue queue as a flat array whose minimum a full queue
 *  extracts by linear scan: the reference IssueQueueModel must match
 *  return for return. */
class LinearScanIq
{
  public:
    explicit LinearScanIq(unsigned capacity) : capacity_(capacity) {}

    Cycle
    waitForSpace(Cycle c)
    {
        while (resident_.size() >= capacity_) {
            size_t m = 0;
            for (size_t i = 1; i < resident_.size(); ++i)
                if (resident_[i] < resident_[m])
                    m = i;
            Cycle leaves = resident_[m];
            resident_[m] = resident_.back();
            resident_.pop_back();
            if (leaves >= c)
                c = leaves + 1;
        }
        return c;
    }

    void insert(Cycle issueCycle) { resident_.push_back(issueCycle); }
    void reset() { resident_.clear(); }
    const std::vector<Cycle> &resident() const { return resident_; }

  private:
    unsigned capacity_;
    std::vector<Cycle> resident_;
};

// Randomized interleavings of the caller protocol (space, then at most
// one insert) against the reference: repeated space requests, skipped
// inserts, ties with resident entries, issue cycles below the current
// minimum, and resets mid-stream.
TEST(Resources, IssueQueueWindowMatchesLinearScan)
{
    Rng rng(0x1b5e);
    for (unsigned cap : {1u, 2u, 3u, 16u, 64u}) {
        IssueQueueModel window(cap);
        LinearScanIq ref(cap);
        Cycle clock = 0;
        for (int step = 0; step < 50000; ++step) {
            Cycle c = clock + rng.below(4);
            Cycle got = window.waitForSpace(c);
            ASSERT_EQ(got, ref.waitForSpace(c))
                << "capacity " << cap << ", step " << step;
            if (rng.below(8) == 0) {
                // Asking again frees nothing more.
                ASSERT_EQ(window.waitForSpace(got), got);
                ASSERT_EQ(ref.waitForSpace(got), got);
            }
            clock = got;
            if (rng.below(8) == 0)
                continue; // the space goes unused

            Cycle issue = 0;
            const auto &resident = ref.resident();
            switch (rng.below(4)) {
              case 0: // near the rename cycle: ties are common
                issue = got + 1 + rng.below(3);
                break;
              case 1: // a long-latency wait
                issue = got + 1 + rng.below(64);
                break;
              case 2: // anywhere, usually below the current minimum
                issue = rng.below(got + 1);
                break;
              default: // an exact tie with a resident entry
                issue = resident.empty()
                            ? got
                            : resident[rng.below(resident.size())];
                break;
            }
            window.insert(issue);
            ref.insert(issue);

            if (rng.below(2000) == 0) {
                window.reset();
                ref.reset();
            }
        }
    }
}

TEST(Resources, RegFreeListReleases)
{
    RegFreeList fl(6, 4); // two free
    EXPECT_EQ(fl.allocate(0), 0u);
    EXPECT_EQ(fl.allocate(0), 0u);
    fl.release(20);
    EXPECT_EQ(fl.allocate(5), 20u); // must wait for the release
}

TEST(Bpred, LearnsBiasedBranch)
{
    BranchPredictor bp(1024);
    u64 wrong = 0;
    for (int i = 0; i < 1000; ++i)
        wrong += !bp.predict(42, true);
    EXPECT_LT(wrong, 5u);
}

// Overrides the model cannot run stop the process with the key named,
// before any simulation state is built.
TEST(Overrides, DegenerateCoreKnobsAreFatal)
{
    struct Case
    {
        const char *key;
        s64 value;
        const char *message;
    };
    for (const Case &c : {Case{"core.iq", 0, "core\\.iq must be at least 1"},
                          Case{"core.iq", 1 << 20, "core\\.iq must be at most"},
                          Case{"core.rob", 0, "core\\.rob must be"},
                          Case{"core.lanes", 0, "core\\.lanes must be"},
                          Case{"core.simd_fus", 0, "core\\.simd_fus must be"},
                          Case{"core.simd_issue", 0,
                               "core\\.simd_issue must be"},
                          Case{"core.bpred", 1000,
                               "core\\.bpred must be a power of two"}}) {
        Config knobs;
        knobs.set(c.key, c.value);
        EXPECT_EXIT(CoreParams::forConfig(SimdKind::VMMX128, 4, knobs),
                    testing::ExitedWithCode(1), c.message)
            << c.key;
    }
}

TEST(Overrides, SmallestCoreKnobsRun)
{
    Config knobs;
    for (const char *key : {"core.iq", "core.rob", "core.lanes",
                            "core.simd_fus", "core.simd_issue", "core.bpred"})
        knobs.set(key, s64(1));
    auto r = runTrace(makeMachine(SimdKind::MMX64, 2, knobs),
                      independentAlus(200));
    EXPECT_EQ(r.core.instructions, 200u);
    EXPECT_GT(r.core.cycles, 200u);
}

} // namespace
} // namespace vmmx
