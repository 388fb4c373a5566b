/**
 * @file
 * Scaling study over a complete application: how far does widening the
 * superscalar core take each SIMD flavour on mpeg2enc?  Reproduces the
 * paper's headline observation that a narrow matrix machine competes
 * with a much wider 1-D machine.
 *
 * Written against the declarative Study API: the first study is the
 * (flavour x width) grid with a pivot speed-up report, the second is an
 * ROB ablation expressed as override sets (the specs/rob_ablation.study
 * shape, built in code here).  Both run through the pluggable executor
 * backends -- flip `backend` to Backend::Process and the same spec
 * runs on worker processes, bit-identically.  The printed spec
 * text round-trips through Study::fromSpecText, so either study can be
 * saved to a file and rerun with tools/vmmx_study.
 */

#include <iostream>

#include "common/logging.hh"
#include "harness/study.hh"

using namespace vmmx;

int
main()
{
    setQuiet(true);
    std::cout << "mpeg2enc speed-up by flavour and machine width\n\n";

    // Note: earlier revisions of this example resolved the mpeg2enc
    // trace with an explicit input seed of 5; the declarative grid uses
    // the repository default seed, so absolute cycle counts differ from
    // runs of the old example (speed-up ratios tell the same story).
    StudySpec spec;
    spec.title = "mpeg2enc scaling study";
    spec.apps = {"mpeg2enc"};
    spec.report.layout = ReportSpec::Layout::Pivot;
    spec.report.pivot = ReportSpec::Metric::Speedup;

    // The grid points replaying one trace form a single batched group:
    // each flavour's mpeg2enc trace is generated once and streamed block
    // by block while all three machine widths step against it, so the
    // whole trace is never held in memory.
    Study study(spec);
    auto results = study.run();
    study.writeReport(std::cout, results);

    std::cout << "\n(speed-ups vs the 2-way mmx64 baseline; see "
                 "specs/fig5.study for all apps)\n";

    // The same grid restated as IPC per point -- no re-run, just a
    // different report over the same results.
    study.spec().report.layout = ReportSpec::Layout::Points;
    study.spec().report.metrics = {ReportSpec::Metric::Cycles,
                                   ReportSpec::Metric::Ipc,
                                   ReportSpec::Metric::Speedup};
    std::cout << '\n';
    study.writeReport(std::cout, results);

    // An ablation grid: override sets replicate the (workload, kind,
    // way) point once per knob setting -- an ROB sensitivity study on
    // the 8-way matrix machine, all four depths in one batched trace
    // pass.  This is specs/rob_ablation.study built in code.
    StudySpec ablation;
    ablation.title = "ROB sensitivity, 8-way vmmx128 mpeg2enc";
    ablation.apps = {"mpeg2enc"};
    ablation.kinds = {SimdKind::VMMX128};
    ablation.ways = {8};
    for (s64 rob : {16, 32, 64, 128}) {
        Config knobs;
        knobs.set("core.rob", rob);
        ablation.overrideSets.push_back(knobs);
    }
    ablation.report.layout = ReportSpec::Layout::Points;
    ablation.report.metrics = {ReportSpec::Metric::Cycles,
                               ReportSpec::Metric::Ipc};

    Study robStudy(ablation);
    std::cout << "\nROB sensitivity (8-way vmmx128, one batched pass):\n";
    robStudy.writeReport(std::cout, robStudy.run());

    // Declarative means serializable: the spec below can be written to
    // a file and replayed byte-identically with tools/vmmx_study.
    std::cout << "\nspec file for the ablation study:\n\n"
              << robStudy.specText();
    return 0;
}
