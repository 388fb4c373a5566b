/**
 * @file
 * Timing-core property tests: register pressure, issue-queue and ROB
 * stalls, branch prediction effects, and vector lane occupancy;
 * hand-timed micro-traces (independent ops at width, a dependency
 * chain, a full issue queue, a full ROB, a mispredict redirect, VTRANSP
 * lane-exchange occupancy, an L1 hit, an L2 hit, a memory access and
 * store->load disambiguation) with exact cycle counts; the issue-queue
 * window, the free list and the store window against their reference
 * models; and the rejection of core overrides the model cannot run.
 */

#include <deque>

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

/** Every step path this host runs -- context-major and each SoA kernel
 *  -- must time @p trace on @p machines, batched, as each machine's
 *  run alone did (@p alone). */
void
expectEveryPathMatches(const std::vector<MachineConfig> &machines,
                       const std::vector<InstRecord> &trace,
                       const std::vector<RunResult> &alone)
{
    u32 runnable = simd::compiledMask() & simd::supportedMask();
    for (unsigned path = 0; path < simd::numPaths; ++path) {
        if (!(runnable & (1u << path)))
            continue;
        ASSERT_EQ(simd::setActivePath(simd::Path(path)), "");
        auto batch = runTraceBatch(machines, trace);
        ASSERT_EQ(batch.size(), machines.size());
        for (size_t m = 0; m < machines.size(); ++m)
            EXPECT_TRUE(batch[m] == alone[m])
                << simd::pathName(simd::Path(path)) << ", machine " << m;
    }
    simd::setActivePathAuto();
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

    expectEveryPathMatches(machines, trace, {two, eight});
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

    expectEveryPathMatches(machines, p.trace(), {two, eight});
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
    // VMMX free list (20 phys - 16 logical at 2-way) must throttle, and
    // one with a single free register the more.  The 8-way core's 48
    // free registers ride in the same batch.
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

    Config oneFree;
    oneFree.set("core.phys_simd", s64(17));
    std::vector<MachineConfig> machines = {
        makeMachine(SimdKind::VMMX128, 2),
        makeMachine(SimdKind::VMMX128, 2, oneFree),
        makeMachine(SimdKind::VMMX128, 8)};
    std::vector<RunResult> alone;
    for (const MachineConfig &m : machines)
        alone.push_back(runTrace(m, p.trace()));
    EXPECT_GT(alone[0].core.renameStallRegs, 0u);
    EXPECT_GT(alone[1].core.renameStallRegs,
              alone[0].core.renameStallRegs);
    expectEveryPathMatches(machines, p.trace(), alone);
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

// Hand-timed store->load disambiguation on the 2-way MMX64 core (the
// Table IV memory of MemoryLevelsHandTimed: a 3-cycle L1 of 32-byte
// lines behind one 8-byte port, a 12-cycle L2, M = 500 cycles of memory
// and a 16-byte-per-cycle L1 fill), over three traces at a 128-byte-
// aligned base:
//   overlap:  li a, base; li v, 7; store v, 0(a); load r, 0(a)
//   disjoint: the same, but load r, 8(a)
//   pushed:   li a, base; li v, 7; store v, 0(a); store v, 16(a);
//             load r, 0(a)
// The li's are fetched at 0, rename at 3 and are done at 5; the rest
// are fetched in pairs from cycle 1 and rename 3 cycles later.
//  - The first store issues at 5 and misses both levels: the L2 is
//    asked at 8 and answers at 8 + 12 + M, and the L1 fill takes
//    32 / 16 = 2 more, so it is done at 522 and commits at 523.  The
//    model marks the line present when the miss starts, so a later
//    access to it that does not wait hits at once.
//  - overlap: the load is ready at 5 but overlaps the store still in
//    flight, so it issues when the store is done, at 522, hits, is done
//    at 525 and commits at 526.  With core.store_window = 0 nothing is
//    searched: it issues at 5, gets the port at 6 (the store held it at
//    5), is done at 9 and commits with the store at 523.
//  - disjoint: bytes 8..15 overlap no store, so at every window the
//    load runs as in the window-0 overlap case: 523 cycles.
//  - pushed: the second store is ready at 5, gets the port at 6, hits,
//    is done at 9 and commits at 523 beside the first.  The load renames
//    at 5 and is ready at 6.  In the default 64-store window it waits
//    for the first store as in overlap: done 525, commit 526.  With
//    core.store_window = 1 the second store pushed the first out and
//    overlaps nothing, so the load issues at 6, gets the port at 7 and
//    is done at 10; cycle 523 already commits two, so it commits at
//    524.  The same with a window of 0.
TEST(Core, StoreWindowHandTimed)
{
    Config one, none;
    one.set("core.store_window", s64(1));
    none.set("core.store_window", s64(0));
    std::vector<MachineConfig> machines = {
        makeMachine(SimdKind::MMX64, 2),
        makeMachine(SimdKind::MMX64, 2, one),
        makeMachine(SimdKind::MMX64, 2, none)};
    const struct
    {
        const char *name;
        s64 loadDisp;
        bool secondStore;
        u64 cycles[3]; ///< per machine: window 64, 1, 0
    } cases[] = {{"overlap", 0, false, {526, 526, 523}},
                 {"disjoint", 8, false, {523, 523, 523}},
                 {"pushed", 0, true, {526, 524, 524}}};

    for (const auto &c : cases) {
        MemImage mem(1 << 16);
        Addr base = mem.alloc(256, 128);
        Program p(mem, SimdKind::MMX64);
        SReg a = p.sreg(), v = p.sreg(), r = p.sreg();
        p.li(a, base);
        p.li(v, 7);
        p.store(v, a, 0, 8);
        if (c.secondStore)
            p.store(v, a, 16, 8);
        p.load(r, a, c.loadDisp, 8);

        std::vector<RunResult> alone;
        for (size_t m = 0; m < machines.size(); ++m) {
            alone.push_back(runTrace(machines[m], p.trace()));
            const RunResult &res = alone.back();
            EXPECT_EQ(res.core.cycles, c.cycles[m]) << c.name << " " << m;
            EXPECT_EQ(res.l1Misses, 1u) << c.name;
            EXPECT_EQ(res.l1Hits, c.secondStore ? 2u : 1u) << c.name;
            EXPECT_EQ(res.l2Misses, 1u) << c.name;
            EXPECT_EQ(res.core.renameStallRegs, 0u);
            EXPECT_EQ(res.core.renameStallIq, 0u);
            EXPECT_EQ(res.core.renameStallRob, 0u);
        }

        // Every step path this host runs walks the same window.
        SCOPED_TRACE(c.name);
        expectEveryPathMatches(machines, p.trace(), alone);
    }
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

    // Every step path this host runs models the same queue.
    expectEveryPathMatches(machines, p.trace(), {roomy, full});
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

    // Every step path this host runs models the same ROB.
    expectEveryPathMatches(machines, p.trace(), {roomy, full});
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

    // Every step path this host runs redirects fetch the same way.
    expectEveryPathMatches(machines, p.trace(), {slow, fast});
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
        SCOPED_TRACE(testing::Message() << "N = " << c.n);
        expectEveryPathMatches(machines, p.trace(), alone);
    }
}

// Hand-timed memory levels: a dependent chain of three 8-byte loads on
// the 2-way MMX64 core over a zeroed image at a 128-byte-aligned base
// (Table IV: a 3-cycle L1 of 32-byte lines, a 12-cycle L2 of 128-byte
// lines that fills the L1 at 16 bytes per cycle, M = 500 cycles of
// memory):
//   0 li a, base       1 load r1, 0(a)
//   2 add t, a, r1     3 load r2, 8(t)
//   4 add u, t, r2     5 load r3, 32(u)
// r1 and r2 read 0, so each add makes the next load wait for the one
// before without moving its address.  Pair p is fetched at p and
// renames at p + 3; an add holds an ALU for 1 cycle, a load issues as
// soon as its address is ready, and every instruction commits the cycle
// after it is done (no two in one cycle, nothing waits at rename).
//  - li is done at 5.  Load 1 issues at 5 and misses both levels: the
//    L1 probe takes 3 cycles, the L2 asked at 8 adds 12 and memory M,
//    and the 32-byte L1 fill 32 / 16 = 2 more, so it is done at 22 + M
//    and commits at 23 + M.  One load: 523 cycles, 123 at M = 100.
//  - add t is done at 23 + M.  Load 2 reads the same 32-byte L1 line:
//    a hit, done 3 cycles after it issues, at 26 + M, committed at
//    27 + M.  Two loads: 527 and 127 cycles.
//  - add u is done at 27 + M.  Load 3 reads the next L1 line, inside
//    the 128-byte L2 line load 1 brought in: an L1 miss at 27 + M, an
//    L2 hit asked at 30 + M and answered at 42 + M, and the fill ends at
//    44 + M, committed at 45 + M.  Three loads: 545 and 145 cycles.
// So one load counts an L1 and an L2 miss, the second adds an L1 hit,
// and the third an L1 miss and an L2 hit.
TEST(Core, MemoryLevelsHandTimed)
{
    MemImage mem(1 << 16);
    Addr base = mem.alloc(256, 128);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg(), t = p.sreg(), u = p.sreg();
    SReg r1 = p.sreg(), r2 = p.sreg(), r3 = p.sreg();
    p.li(a, base);
    EXPECT_EQ(p.load(r1, a, 0, 8), 0u);
    p.add(t, a, r1);
    EXPECT_EQ(p.load(r2, t, 8, 8), 0u);
    p.add(u, t, r2);
    p.load(r3, u, 32, 8);
    ASSERT_EQ(p.trace().size(), 6u);

    Config fast;
    fast.set("mem.latency", s64(100));
    std::vector<MachineConfig> machines = {
        makeMachine(SimdKind::MMX64, 2),
        makeMachine(SimdKind::MMX64, 2, fast)};
    const struct
    {
        size_t records;
        u64 slowCycles, fastCycles;
        u64 l1Hits, l1Misses, l2Hits, l2Misses;
    } cases[] = {{2, 523, 123, 0, 1, 0, 1},
                 {4, 527, 127, 1, 1, 0, 1},
                 {6, 545, 145, 1, 2, 1, 1}};

    for (const auto &c : cases) {
        std::vector<InstRecord> prefix(
            p.trace().begin(), p.trace().begin() + std::ptrdiff_t(c.records));
        std::vector<RunResult> alone;
        for (const MachineConfig &m : machines)
            alone.push_back(runTrace(m, prefix));
        EXPECT_EQ(alone[0].core.cycles, c.slowCycles) << c.records;
        EXPECT_EQ(alone[1].core.cycles, c.fastCycles) << c.records;
        for (const RunResult &r : alone) {
            EXPECT_EQ(r.core.instructions, c.records);
            EXPECT_EQ(r.l1Hits, c.l1Hits) << c.records;
            EXPECT_EQ(r.l1Misses, c.l1Misses) << c.records;
            EXPECT_EQ(r.l2Hits, c.l2Hits) << c.records;
            EXPECT_EQ(r.l2Misses, c.l2Misses) << c.records;
            EXPECT_EQ(r.core.renameStallRegs, 0u);
            EXPECT_EQ(r.core.renameStallIq, 0u);
            EXPECT_EQ(r.core.renameStallRob, 0u);
        }

        // Every step path this host runs times the same loads.
        SCOPED_TRACE(testing::Message() << c.records << " records");
        expectEveryPathMatches(machines, prefix, alone);
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

/** The free list as a free count and a FIFO of pending releases that
 *  each allocation harvests up to its cycle: RegFreeList must match it
 *  return for return. */
class HarvestFreeList
{
  public:
    explicit HarvestFreeList(unsigned initialFree)
        : initialFree_(initialFree), free_(initialFree)
    {
    }

    Cycle
    allocate(Cycle c)
    {
        harvest(c);
        while (free_ == 0) {
            c = std::max(c, pending_.front());
            harvest(c);
        }
        --free_;
        return c;
    }

    void release(Cycle commitCycle) { pending_.push_back(commitCycle); }

    void
    reset()
    {
        pending_.clear();
        free_ = initialFree_;
    }

  private:
    void
    harvest(Cycle c)
    {
        for (; !pending_.empty() && pending_.front() <= c;
             pending_.pop_front())
            ++free_;
    }

    unsigned initialFree_;
    unsigned free_;
    std::deque<Cycle> pending_;
};

// Randomized streams under the rename protocol: every allocation is
// released once, in allocation order, at a commit cycle later than every
// cycle granted so far and no earlier than the release before it.
// Requests wander, sometimes below the last grant; releases lag their
// allocations by up to the whole free pool; resets come mid-stream.
TEST(Resources, RegFreeListMatchesHarvest)
{
    Rng rng(0xf1ee);
    for (unsigned phys : {1u, 2u, 3u, 8u, 20u, 40u, 64u, 96u}) {
        for (unsigned logical : {0u, phys / 2, phys - 1}) {
            unsigned initialFree = phys - logical;
            RegFreeList fl(phys, logical);
            HarvestFreeList ref(initialFree);
            unsigned unreleased = 0;
            Cycle clock = 0, lastRelease = 0; // clock: the latest grant
            for (int step = 0; step < 20000; ++step) {
                // Allocating with every register granted and none
                // released would deadlock the rename.
                if (unreleased < initialFree &&
                    (unreleased == 0 || rng.below(2))) {
                    Cycle c = rng.below(8) == 0 ? rng.below(clock + 1)
                                                : clock + rng.below(4);
                    Cycle got = fl.allocate(c);
                    ASSERT_EQ(got, ref.allocate(c))
                        << phys << "/" << logical << ", step " << step;
                    clock = std::max(clock, got);
                    ++unreleased;
                } else {
                    Cycle lag = rng.below(4) == 0 ? rng.below(40)
                                                  : rng.below(3);
                    lastRelease = std::max(lastRelease, clock + 1 + lag);
                    fl.release(lastRelease);
                    ref.release(lastRelease);
                    --unreleased;
                }
                if (rng.below(3000) == 0) {
                    fl.reset();
                    ref.reset();
                    unreleased = 0;
                    clock = lastRelease = 0;
                }
            }
        }
    }
}

/** The store window as the last @p window stores, every one of them
 *  searched by every load: StoreWindow must match it return for
 *  return. */
class FullWalkStores
{
  public:
    explicit FullWalkStores(unsigned window) : window_(window) {}

    void
    push(Addr lo, Addr hi, Cycle done)
    {
        if (window_ == 0)
            return;
        stores_.push_back({lo, hi, done});
        if (stores_.size() > window_)
            stores_.pop_front();
    }

    Cycle
    disambiguate(Addr lo, Addr hi, Cycle issue) const
    {
        for (const Store &st : stores_)
            if (st.done > issue && st.lo < hi && lo < st.hi)
                issue = st.done;
        return issue;
    }

    void reset() { stores_.clear(); }

  private:
    struct Store
    {
        Addr lo;
        Addr hi;
        Cycle done;
    };

    unsigned window_;
    std::deque<Store> stores_;
};

// Randomized streams under the model's protocol: instructions rename at
// non-decreasing cycles, a load issues at or after its rename + 1, and a
// store is done at or after its own, mostly soon and sometimes a memory
// latency later.  Accesses of 1..16 bytes within 256 bytes overlap
// often.  Resets come mid-stream.
TEST(Resources, StoreWindowMatchesFullWalk)
{
    Rng rng(0x5707);
    for (unsigned window : {0u, 1u, 16u, 64u}) {
        StoreWindow fast(window);
        FullWalkStores ref(window);
        Cycle rename = 0;
        for (int step = 0; step < 100000; ++step) {
            rename += rng.below(3);
            Cycle floor = rename + 1;
            Addr lo = rng.below(256);
            Addr hi = lo + 1 + rng.below(16);
            if (rng.below(2)) {
                Cycle done = floor + (rng.below(8) == 0 ? rng.below(600)
                                                        : rng.below(8));
                fast.push(lo, hi, done);
                ref.push(lo, hi, done);
            } else {
                Cycle issue = floor + (rng.below(4) == 0 ? rng.below(600)
                                                         : rng.below(3));
                ASSERT_EQ(fast.disambiguate(lo, hi, issue, floor),
                          ref.disambiguate(lo, hi, issue))
                    << "window " << window << ", step " << step;
            }
            if (rng.below(5000) == 0) {
                fast.reset();
                ref.reset();
                rename = 0;
            }
        }
    }
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
    auto trace = independentAlus(200);
    std::vector<MachineConfig> machines = {
        makeMachine(SimdKind::MMX64, 2, knobs),
        makeMachine(SimdKind::MMX64, 8)};
    std::vector<RunResult> alone;
    for (const MachineConfig &m : machines)
        alone.push_back(runTrace(m, trace));
    EXPECT_EQ(alone[0].core.instructions, 200u);
    EXPECT_GT(alone[0].core.cycles, 200u);

    // One-entry queues and a one-entry ROB step beside default ones.
    expectEveryPathMatches(machines, trace, alone);
}

} // namespace
} // namespace vmmx
