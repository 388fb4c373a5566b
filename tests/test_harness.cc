/**
 * @file
 * Harness tests: machine construction matches Table III/IV, config
 * overrides reach the models, and timing responds sanely to the knobs
 * across a parameterised (flavour x width) sweep.
 */

#include <gtest/gtest.h>

#include <set>

#include "harness/runner.hh"
#include "kernels/kernel.hh"

namespace vmmx
{
namespace
{

struct MachineCase
{
    SimdKind kind;
    unsigned way;
};

class MachineSweep
    : public testing::TestWithParam<std::tuple<int, unsigned>>
{
  protected:
    SimdKind kind() const { return SimdKind(std::get<0>(GetParam())); }
    unsigned way() const { return std::get<1>(GetParam()); }
};

// Asserts every default of Tables III and IV (and the scalar core's
// scaling, which Table III leaves open), as literal references.
TEST_P(MachineSweep, TableIIIParameters)
{
    auto m = makeMachine(kind(), way());
    unsigned idx = way() == 2 ? 0 : way() == 4 ? 1 : 2;

    EXPECT_EQ(m.core.way, way());
    EXPECT_EQ(m.core.intFus, way());
    if (isMatrix(kind())) {
        static const unsigned issue[3] = {1, 2, 3};
        static const unsigned phys[3] = {20, 36, 64};
        static const unsigned ports[3] = {1, 1, 2};
        EXPECT_EQ(m.core.simdIssue, issue[idx]);
        EXPECT_EQ(m.core.simdFus, issue[idx]);
        EXPECT_EQ(m.core.lanesPerFu, 4u);
        EXPECT_EQ(m.core.physSimd, phys[idx]);
        EXPECT_EQ(m.core.logicalSimd, 16u);
        EXPECT_EQ(m.core.physAcc, 8u);
        EXPECT_EQ(m.core.logicalAcc, 4u);
        EXPECT_EQ(m.core.memPorts, ports[idx]);
        EXPECT_EQ(m.mem.l1Ports, ports[idx]);
    } else {
        static const unsigned phys[3] = {40, 64, 96};
        static const unsigned ports[3] = {1, 2, 4};
        EXPECT_EQ(m.core.simdIssue, way());
        EXPECT_EQ(m.core.simdFus, way());
        EXPECT_EQ(m.core.lanesPerFu, 1u);
        EXPECT_EQ(m.core.physSimd, phys[idx]);
        EXPECT_EQ(m.core.logicalSimd, 32u);
        EXPECT_EQ(m.core.physAcc, 2u);
        EXPECT_EQ(m.core.logicalAcc, 1u);
        EXPECT_EQ(m.core.memPorts, ports[idx]);
        EXPECT_EQ(m.mem.l1Ports, ports[idx]);
    }
    // The scalar core, scaled with width.
    static const unsigned fpFus[3] = {1, 2, 4};
    static const unsigned rob[3] = {32, 64, 128};
    static const unsigned iq[3] = {16, 32, 64};
    static const unsigned physInt[3] = {40, 64, 96};
    static const unsigned physFp[3] = {40, 56, 72};
    EXPECT_EQ(m.core.fpFus, fpFus[idx]);
    EXPECT_EQ(m.core.robSize, rob[idx]);
    EXPECT_EQ(m.core.iqSize, iq[idx]);
    EXPECT_EQ(m.core.physInt, physInt[idx]);
    EXPECT_EQ(m.core.physFp, physFp[idx]);
    EXPECT_EQ(m.core.logicalInt, 32u);
    EXPECT_EQ(m.core.logicalFp, 32u);
    EXPECT_EQ(m.core.frontDepth, 3u);
    EXPECT_EQ(m.core.mispredictPenalty, 8u);
    EXPECT_EQ(m.core.bpredEntries, 4096u);
    EXPECT_EQ(m.core.storeWindow, 64u);

    // Table IV.
    static const u32 fill[3] = {16, 32, 64};
    static const u32 vec[3] = {8, 16, 32};
    EXPECT_EQ(m.mem.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(m.mem.l1.assoc, 4u);
    EXPECT_EQ(m.mem.l1.lineBytes, 32u);
    EXPECT_EQ(m.mem.l1.latency, 3u);
    EXPECT_EQ(m.mem.l1Banks, 8u);
    EXPECT_EQ(m.mem.l1PortBytes, 8u);
    EXPECT_EQ(m.mem.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(m.mem.l2.assoc, 2u);
    EXPECT_EQ(m.mem.l2.lineBytes, 128u);
    EXPECT_EQ(m.mem.l2.latency, 12u);
    EXPECT_EQ(m.mem.l2FillBytes, fill[idx]);
    EXPECT_EQ(m.mem.vecPortBytes, vec[idx]);
    EXPECT_EQ(m.mem.vecStridedBytes, 8u);
    EXPECT_EQ(m.mem.memLatency, 500u);
    EXPECT_EQ(m.mem.mshrs, 8u);
}

TEST_P(MachineSweep, KernelRunsAndScales)
{
    auto trace = [&]() {
        auto k = makeKernel("addblock");
        MemImage mem(16u << 20);
        Rng rng(3);
        k->prepare(mem, rng);
        Program p(mem, kind());
        k->emit(p);
        return p.takeTrace();
    }();
    auto r = runTrace(makeMachine(kind(), way()), trace);
    EXPECT_EQ(r.core.instructions, trace.size());
    EXPECT_GT(r.cycles(), 0u);
    if (way() > 2) {
        auto narrow = runTrace(makeMachine(kind(), 2), trace);
        EXPECT_LE(r.cycles(), narrow.cycles());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, MachineSweep,
    testing::Combine(testing::Values(0, 1, 2, 3),
                     testing::Values(2u, 4u, 8u)),
    [](const auto &tpi) {
        return name(SimdKind(std::get<0>(tpi.param))) + "_" +
               std::to_string(std::get<1>(tpi.param)) + "way";
    });

TEST(Overrides, MemoryLatencyReachesTheModel)
{
    auto k = makeKernel("h2v2");
    MemImage mem(16u << 20);
    Rng rng(4);
    k->prepare(mem, rng);
    Program p(mem, SimdKind::MMX64);
    k->emit(p);

    Config slow;
    slow.set("mem.latency", s64(2000));
    auto fast = runTrace(makeMachine(SimdKind::MMX64, 2), p.trace());
    auto slower =
        runTrace(makeMachine(SimdKind::MMX64, 2, slow), p.trace());
    EXPECT_GT(slower.cycles(), fast.cycles());
}

// Every knob the two tables declare must move cycles on some Table II
// kernel point, so a key the model stops reading fails here.  A probe
// sets its knob to a second legal value on top of an optional context,
// and must move cycles relative to the context alone.
TEST(Overrides, EveryKnobMovesCycles)
{
    struct Probe
    {
        const char *knob;
        const char *context = nullptr;
    };
    const Probe probes[] = {
        {"core.rob=8"},
        {"core.iq=2"},
        {"core.front_depth=12"},
        {"core.mispredict=30"},
        {"core.bpred=16"},
        {"core.lanes=1"},
        {"core.simd_fus=1"},
        {"core.simd_issue=1"},
        {"core.phys_simd=33"},
        {"core.store_window=0"},
        {"mem.l1.size=2048"},
        {"mem.l1.assoc=1"},
        {"mem.l1.line=128"},
        {"mem.l1.banks=1"},
        {"mem.l1.latency=10"},
        {"mem.l1.ports=1"},
        {"mem.l1.port_bytes=4"},
        {"mem.l2.size=16384"},
        // Alone it moves nothing: both kernels fit the default L2.
        {"mem.l2.assoc=1", "mem.l2.size=16384"},
        {"mem.l2.line=32"},
        {"mem.l2.latency=40"},
        {"mem.l2.fill_bytes=4"},
        {"mem.vec.port_bytes=64"},
        {"mem.vec.strided_bytes=4"},
        {"mem.latency=100"},
        {"mem.mshrs=1"},
    };

    std::set<std::string> declared, probed, moved;
    for (const auto &k : CoreParams::knobs())
        declared.insert(k.key);
    for (const auto &k : MemParams::knobs())
        declared.insert(k.key);
    for (const Probe &p : probes)
        probed.insert(Config({p.knob}).keys()[0]);
    EXPECT_EQ(probed, declared);

    for (const char *kernel : {"addblock", "ycc"})
        for (SimdKind kind : {SimdKind::MMX64, SimdKind::VMMX128}) {
            auto k = makeKernel(kernel);
            MemImage mem(16u << 20);
            Rng rng(7);
            k->prepare(mem, rng);
            Program prog(mem, kind);
            k->emit(prog);
            for (unsigned way : {2u, 4u, 8u}) {
                std::vector<MachineConfig> machines;
                for (const Probe &p : probes) {
                    std::vector<std::string> context;
                    if (p.context)
                        context.push_back(p.context);
                    std::vector<std::string> probe = context;
                    probe.push_back(p.knob);
                    machines.push_back(makeMachine(kind, way, Config(context)));
                    machines.push_back(makeMachine(kind, way, Config(probe)));
                }
                auto runs = runTraceBatch(machines, prog.trace());
                for (size_t i = 0; i < std::size(probes); ++i)
                    if (runs[2 * i].cycles() != runs[2 * i + 1].cycles())
                        moved.insert(probes[i].knob);
            }
        }
    for (const Probe &p : probes)
        EXPECT_TRUE(moved.count(p.knob)) << p.knob << " moved no cycles";
}

TEST(Overrides, BadWidthIsRejected)
{
    EXPECT_EXIT(makeMachine(SimdKind::MMX64, 3),
                testing::ExitedWithCode(1), "unsupported");
}

TEST(Regions, KernelCyclesAttributedToVector)
{
    auto k = makeKernel("ycc");
    MemImage mem(16u << 20);
    Rng rng(5);
    k->prepare(mem, rng);
    Program p(mem, SimdKind::MMX64);
    k->emit(p);
    auto r = runTrace(makeMachine(SimdKind::MMX64, 2), p.trace());
    // An isolated kernel is one big vector region.
    EXPECT_GT(r.core.vectorCycles, 9 * r.core.scalarCycles);
    EXPECT_EQ(r.core.vectorCycles + r.core.scalarCycles, r.cycles());
}

} // namespace
} // namespace vmmx
