/**
 * @file
 * Host-SIMD dispatch tests: the cpuid probe must report a sane
 * compiled/supported lattice (scalar always present, the retired sse2
 * never, the active path inside both masks, pins accepted exactly when
 * executable), and -- the load-bearing contract -- every
 * compiled+supported path (context-major scalar and the SoA kernels)
 * must be bit-identical to the fused serial reference on randomized
 * configuration grids, through both the raw-trace and pre-decoded
 * overloads, at batch widths below, at, and above the widest vector
 * width, on a Table II kernel and on store/load traffic that keeps the
 * store window busy.  The SoA kernels' lane arrays start on a cache
 * line.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <vector>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "mem/memsys.hh"
#include "sim/params.hh"
#include "sim/sim_batch.hh"
#include "sim/sim_context.hh"
#include "sim/simd_dispatch.hh"
#include "trace/program.hh"
#include "trace/trace_repo.hh"

namespace vmmx
{
namespace
{

constexpr simd::Path kAllPaths[] = {simd::Path::Scalar, simd::Path::Sse2,
                                    simd::Path::Avx2, simd::Path::Avx512};

u32
bit(simd::Path p)
{
    return u32(1) << unsigned(p);
}

/** Paths this binary can actually execute here, narrowest first. */
std::vector<simd::Path>
runnablePaths()
{
    std::vector<simd::Path> out;
    u32 usable = simd::compiledMask() & simd::supportedMask();
    for (simd::Path p : kAllPaths)
        if (usable & bit(p))
            out.push_back(p);
    return out;
}

class SimdTest : public testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }

    /** Tests pin the process-global active path; put auto-selection
     *  back so ordering between tests cannot matter. */
    void TearDown() override { simd::setActivePathAuto(); }

    TraceRepository repo;
};

TEST_F(SimdTest, ProbeReportsSaneLattice)
{
    // Scalar is unconditionally compiled and unconditionally
    // executable; the masks never stray outside the path ordinals.
    EXPECT_TRUE(simd::compiledMask() & bit(simd::Path::Scalar));
    EXPECT_TRUE(simd::supportedMask() & bit(simd::Path::Scalar));
    EXPECT_EQ(simd::compiledMask() >> simd::numPaths, 0u);
    EXPECT_EQ(simd::supportedMask() >> simd::numPaths, 0u);

    // AVX-512 machines have AVX2 (the probe checks each feature
    // independently, so this asserts the probe is reading the right
    // bits, not just returning a constant).  The retired sse2 name is
    // neither compiled nor probed.
    u32 sup = simd::supportedMask();
    if (sup & bit(simd::Path::Avx512)) {
        EXPECT_TRUE(sup & bit(simd::Path::Avx2));
    }
    EXPECT_FALSE(simd::compiledMask() & bit(simd::Path::Sse2));
    EXPECT_FALSE(sup & bit(simd::Path::Sse2));

    // bestPath and the resolved active path sit inside both masks, and
    // best really is the widest usable ordinal.
    u32 usable = simd::compiledMask() & sup;
    EXPECT_TRUE(usable & bit(simd::bestPath()));
    EXPECT_TRUE(usable & bit(simd::activePath()));
    for (simd::Path p : kAllPaths) {
        if (usable & bit(p)) {
            EXPECT_GE(unsigned(simd::bestPath()), unsigned(p));
        }
    }
}

TEST_F(SimdTest, ParseRoundTripsAndRejectsJunk)
{
    for (simd::Path p : kAllPaths) {
        simd::Path back{};
        bool isAuto = true;
        EXPECT_TRUE(simd::parsePath(simd::pathName(p), back, isAuto));
        EXPECT_FALSE(isAuto);
        EXPECT_EQ(back, p);
    }
    simd::Path ignored{};
    bool isAuto = false;
    EXPECT_TRUE(simd::parsePath("auto", ignored, isAuto));
    EXPECT_TRUE(isAuto);
    for (const char *junk : {"", "avx", "AVX2", "sse", "scalar2", "512"}) {
        simd::Path p{};
        bool a = false;
        EXPECT_FALSE(simd::parsePath(junk, p, a)) << '"' << junk << '"';
    }
}

TEST_F(SimdTest, PinSucceedsExactlyWhenRunnable)
{
    u32 usable = simd::compiledMask() & simd::supportedMask();
    for (simd::Path p : kAllPaths) {
        simd::Path before = simd::activePath();
        std::string err = simd::setActivePath(p);
        if (usable & bit(p)) {
            EXPECT_TRUE(err.empty()) << err;
            EXPECT_EQ(simd::activePath(), p);
        } else {
            // Rejected pins must say why and must not change anything.
            EXPECT_FALSE(err.empty()) << simd::pathName(p);
            EXPECT_NE(err.find(simd::pathName(p)), std::string::npos)
                << err;
            EXPECT_EQ(simd::activePath(), before);
        }
    }
}

TEST_F(SimdTest, WidthOneBatchesAlwaysTakeTheSerialStep)
{
    for (simd::Path p : runnablePaths()) {
        ASSERT_EQ(simd::setActivePath(p), "");
        EXPECT_EQ(simd::pathFor(1), simd::Path::Scalar);
        EXPECT_EQ(simd::pathFor(2), p);
        EXPECT_EQ(simd::pathFor(9), p);
    }
}

/** @p n machines with randomized ablation knobs, mirroring the sweep
 *  tests: wide coverage of the per-lane state the SoA kernels must
 *  keep exact (ROB/IQ/free-list/lane/store-window/bpred/memory
 *  shapes).  Issue-queue, ROB and store-window sizes and the L1 port
 *  count, port width and bank count step through their lists from a
 *  random start, so neighbouring machines differ in each and every
 *  batch of two or more steps rings and L1 front ends of mixed shape:
 *  queues shallower than the kernels' vector insert window and queues
 *  deeper than their own ROB, store windows of 0 and 1 beside deep
 *  ones, and 3 banks (the modulo bank pick) beside 1 and 8 among them.
 *  Some machines keep just one or two SIMD registers beyond the
 *  flavour's logical ones. */
std::vector<MachineConfig>
randomMachines(std::mt19937 &rng, SimdKind kind, size_t n)
{
    auto pick = [&](std::initializer_list<s64> choices) {
        std::vector<s64> v(choices);
        return v[rng() % v.size()];
    };
    static constexpr s64 iqs[] = {1, 2, 8, 16, 32, 64, 128};
    static constexpr s64 robs[] = {1, 8, 16, 32, 64, 128};
    static constexpr s64 windows[] = {0, 1, 5, 16, 64};
    static constexpr s64 ports[] = {1, 2, 4};
    static constexpr s64 banks[] = {1, 3, 8};
    static constexpr s64 portBytes[] = {4, 8, 16};
    const size_t iq0 = rng() % std::size(iqs);
    const size_t rob0 = rng() % std::size(robs);
    const size_t window0 = rng() % std::size(windows);
    const size_t port0 = rng() % std::size(ports);
    const size_t bank0 = rng() % std::size(banks);
    const size_t portBytes0 = rng() % std::size(portBytes);
    std::vector<MachineConfig> machines;
    for (size_t i = 0; i < n; ++i) {
        unsigned way = unsigned(pick({2, 4, 8}));
        Config knobs;
        knobs.set("core.iq", iqs[(iq0 + i) % std::size(iqs)]);
        knobs.set("core.rob", robs[(rob0 + i) % std::size(robs)]);
        knobs.set("core.store_window",
                  windows[(window0 + i) % std::size(windows)]);
        knobs.set("mem.l1.ports", ports[(port0 + i) % std::size(ports)]);
        knobs.set("mem.l1.banks", banks[(bank0 + i) % std::size(banks)]);
        knobs.set("mem.l1.port_bytes",
                  portBytes[(portBytes0 + i) % std::size(portBytes)]);
        if (rng() % 3 == 0)
            knobs.set("core.phys_simd",
                      s64(CoreParams::forConfig(kind, way).logicalSimd) +
                          pick({1, 2}));
        if (rng() % 2)
            knobs.set("core.lanes", pick({1, 2, 4}));
        if (rng() % 2)
            knobs.set("core.bpred", pick({256, 4096}));
        if (rng() % 2)
            knobs.set("mem.l2.latency", pick({6, 12, 20}));
        if (rng() % 2)
            knobs.set("mem.mshrs", pick({2, 8}));
        if (rng() % 2)
            knobs.set("mem.l1.size", pick({16 * 1024, 32 * 1024}));
        machines.push_back(makeMachine(kind, way, knobs));
    }
    return machines;
}

// Every lane array of a real batch starts on a cache line, so no
// 512-bit row load in the SoA kernels splits across two (lint rule
// lane-alignment keeps SimBatch's arrays LaneVecs).  Five lanes pad to
// eight and store windows of 0 and 5 give the store ring rows.
TEST_F(SimdTest, LaneArraysStartOnACacheLine)
{
    std::mt19937 rng(0xa11);
    std::vector<MachineConfig> machines =
        randomMachines(rng, SimdKind::VMMX128, 5);
    std::vector<std::unique_ptr<MemorySystem>> mems;
    std::vector<std::unique_ptr<SimContext>> owned;
    std::vector<SimContext *> ctxs;
    for (const MachineConfig &m : machines) {
        mems.push_back(std::make_unique<MemorySystem>(m.mem));
        owned.push_back(
            std::make_unique<SimContext>(m.core, mems.back().get()));
        ctxs.push_back(owned.back().get());
    }
    SimBatch b(ctxs);
    ASSERT_EQ(b.padded, 8u);
    ASSERT_GT(b.stores.rows, 0u);
    const std::pair<const char *, const LaneVec *> arrays[] = {
        {"gateW", &b.gateW},
        {"regReady", &b.regReady},
        {"lanesOcc", &b.lanesOcc},
        {"intPool", &b.intPool.slots},
        {"simdIssuePool", &b.simdIssuePool.slots},
        {"rob", &b.rob.slots},
        {"rob.readOff", &b.rob.readOff},
        {"iq", &b.iq.slots},
        {"regs[Simd]", &b.regs[size_t(RegClass::Simd)].slots},
        {"regLast", &b.regLast},
        {"iqCap", &b.iqCap},
        {"stores.done", &b.stores.done},
        {"stores.window", &b.stores.window},
        {"l1Ports", &b.l1Ports.slots},
        {"l1Banks", &b.l1Banks},
        {"vectorCyc", &b.vectorCyc},
        {"issue", &b.issue},
        {"start", &b.start},
    };
    for (const auto &[name, v] : arrays) {
        ASSERT_FALSE(v->empty()) << name;
        EXPECT_EQ(reinterpret_cast<uintptr_t>(v->data()) % 64, 0u) << name;
        EXPECT_EQ(v->size() % SimBatch::padLanes, 0u) << name;
    }
}

// The dispatch contract: every kernel path this host can run is
// bit-identical to N independent runTrace() calls (the fused serial
// oracle) on randomized grids -- raw and pre-decoded overloads, batch
// widths 1 (serial fast path), 2 (partial vector), 4 and 8 (exact
// 4-lane and 8-lane vectors), 9 (wider than any host vector, exercising
// chunking plus the padded tail), and 12 (one full AVX-512 vector plus
// a 4-lane tail).  The rng reseeds per path so every path replays the
// exact same grids.
TEST_F(SimdTest, EveryRunnablePathBitIdenticalToSerial)
{
    for (simd::Path path : runnablePaths()) {
        ASSERT_EQ(simd::setActivePath(path), "");
        for (SimdKind kind : {SimdKind::MMX64, SimdKind::VMMX128}) {
            const TraceKey key{false, "idct", kind,
                               TraceRepository::kernelImageBytes,
                               TraceRepository::defaultSeed};
            auto trace = repo.raw(key);
            auto stream = repo.decoded(key);
            std::mt19937 rng(0x51bd);
            for (size_t batchSize : {1, 2, 4, 8, 9, 12}) {
                std::vector<MachineConfig> machines =
                    randomMachines(rng, kind, batchSize);

                auto batched = runTraceBatch(machines, *trace);
                auto decoded = runTraceBatch(machines, stream.stream());
                ASSERT_EQ(batched.size(), batchSize);
                for (size_t i = 0; i < batchSize; ++i) {
                    RunResult alone = runTrace(machines[i], *trace);
                    EXPECT_TRUE(batched[i] == alone)
                        << simd::pathName(path) << ' ' << name(kind)
                        << " batch of " << batchSize << ", config " << i;
                    EXPECT_TRUE(decoded[i] == alone)
                        << simd::pathName(path) << " decoded "
                        << name(kind) << " batch of " << batchSize
                        << ", config " << i;
                }
            }
        }
    }
}

/** Scalar loads and stores of 1 to 8 bytes at random offsets of a
 *  1 KiB buffer, each store carrying the value the last load read.
 *  First touches of a line miss to memory, so loads keep finding
 *  overlapping stores in flight at every depth of the store windows
 *  randomMachines mixes (no Table II kernel reloads what it stored),
 *  and unaligned accesses straddle lines and banks. */
std::vector<InstRecord>
storeLoadTraffic(std::mt19937 &rng)
{
    MemImage mem(1 << 16);
    Addr base = mem.alloc(1024 + 8, 128);
    Program p(mem, SimdKind::MMX64);
    SReg a = p.sreg(), v = p.sreg();
    p.li(a, base);
    p.li(v, 7);
    static constexpr unsigned sizes[] = {1, 2, 4, 8};
    for (int i = 0; i < 4000; ++i) {
        s64 disp = s64(rng() % 1024);
        unsigned bytes = sizes[rng() % std::size(sizes)];
        if (rng() % 2)
            p.store(v, a, disp, bytes);
        else
            p.load(v, a, disp, bytes);
    }
    return p.takeTrace();
}

// The store window and the L1 front end under load: every runnable
// path times storeLoadTraffic() on randomized grids as each machine
// alone does.
TEST_F(SimdTest, StoreLoadTrafficBitIdenticalToSerial)
{
    for (simd::Path path : runnablePaths()) {
        ASSERT_EQ(simd::setActivePath(path), "");
        std::mt19937 rng(0x5707e);
        const std::vector<InstRecord> trace = storeLoadTraffic(rng);
        for (size_t batchSize : {2, 5, 9, 16}) {
            std::vector<MachineConfig> machines =
                randomMachines(rng, SimdKind::MMX64, batchSize);
            auto batched = runTraceBatch(machines, trace);
            ASSERT_EQ(batched.size(), batchSize);
            for (size_t i = 0; i < batchSize; ++i)
                EXPECT_TRUE(batched[i] == runTrace(machines[i], trace))
                    << simd::pathName(path) << " batch of " << batchSize
                    << ", config " << i;
        }
    }
}

} // namespace
} // namespace vmmx
