/**
 * @file
 * Serialization hooks for the harness types that cross a process or
 * file boundary, in two flavours:
 *
 * Wire codecs for the driver/worker protocol: Config (ablation
 * overrides), RunStats and RunResult (the payload of a finished grid
 * point), and SweepPoint (a job description: the workload whose trace
 * the worker streams by TraceKey, and its machine).  All round-trips
 * are bit-exact;
 * RunResult equality after a decode is the basis of the distributed
 * determinism guarantee.
 *
 * The text codec for StudySpec files: a line-based key = value format
 * with [grid]/[exec]/[report] sections (see README "Studies").
 * formatStudySpec() emits the canonical form, and parse(format(spec))
 * reproduces the spec exactly -- the round-trip contract of
 * tests/test_study.cc.
 */

#ifndef VMMX_HARNESS_HARNESS_IO_HH
#define VMMX_HARNESS_HARNESS_IO_HH

#include "common/config.hh"
#include "dist/wire.hh"
#include "harness/runner.hh"
#include "harness/study.hh"
#include "harness/sweep.hh"

namespace vmmx
{

void serialize(wire::Writer &w, const Config &c);
bool deserialize(wire::Reader &r, Config &c);

void serialize(wire::Writer &w, const RunStats &s);
bool deserialize(wire::Reader &r, RunStats &s);

void serialize(wire::Writer &w, const RunResult &res);
bool deserialize(wire::Reader &r, RunResult &res);

void serialize(wire::Writer &w, const SweepPoint &p);
bool deserialize(wire::Reader &r, SweepPoint &p);

/** The canonical spec-file text of @p spec (all keys, all sections). */
std::string formatStudySpec(const StudySpec &spec);

/**
 * Parse spec-file text into @p spec.  Unlisted keys keep their
 * defaults (including the environment-derived ExecutionPolicy
 * defaults); unknown sections, unknown keys, and malformed values fail
 * with a "line N: ..." message in @p err.  @p spec is meaningful only
 * when the parse succeeds.
 */
bool parseStudySpec(const std::string &text, StudySpec &spec,
                    std::string &err);

/**
 * Apply one `SECTION.KEY=VALUE` assignment to @p spec (a bare KEY is a
 * top-level key such as title) with the syntax and validation of the
 * line `KEY = VALUE` in [SECTION]: a later assignment of the same key
 * wins, and grid.override appends an override set.  Unknown sections or
 * keys, a missing '=' and malformed values fail with @p assignment
 * named in @p err.  vmmx_study's --set.
 */
bool applySpecSetting(const std::string &assignment, StudySpec &spec,
                      std::string &err);

} // namespace vmmx

#endif // VMMX_HARNESS_HARNESS_IO_HH
