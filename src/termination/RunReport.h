//===- termination/RunReport.h - Versioned JSON run reports ---*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable run report: one versioned JSON object per analysis
/// run, carrying everything the paper's evaluation (Section 7) tabulates
/// per run -- verdict, per-stage module census, per-stage wall-clock
/// timers, difference-construction sizes, portfolio entrant timelines --
/// in one schema shared by `termcheck --stats-json`, termcheckd's result
/// lines and the figure harnesses' `--json` documents.
///
/// Schema stability: `schema` names the document kind and
/// `schema_version` is bumped on any breaking change; consumers must
/// tolerate added keys within a version. The full key list is documented
/// in DESIGN.md section 11.
///
/// Determinism: with RunReportOptions::Deterministic set, every
/// wall-clock-derived value (wall_s, timers_s values, entrant timestamps)
/// is written as 0.000000 while the keys stay, so two Jobs == 1 runs of
/// the same program produce byte-identical reports (the golden test in
/// tests/report_test.cpp pins this).
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_TERMINATION_RUNREPORT_H
#define TERMCHECK_TERMINATION_RUNREPORT_H

#include "support/Json.h"
#include "termination/Portfolio.h"

namespace termcheck {

/// The document kind and version every report is stamped with.
inline constexpr const char *RunReportSchemaName = "termcheck-run-report";
inline constexpr int RunReportSchemaVersion = 1;

/// \returns the CLI exit code a verdict maps to (0 terminating,
/// 1 nonterminating, 2 unknown, 3 timeout/cancelled).
int verdictExitCode(Verdict V);

struct RunReportOptions {
  /// Zero every wall-clock-derived value so the report is byte-for-byte
  /// reproducible (see file comment).
  bool Deterministic = false;
};

/// Everything one report is built from. Result is required; Portfolio is
/// present for portfolio runs and adds the winner plus entrant timelines.
struct RunReportInput {
  std::string ProgramName;
  /// Source path as given on the command line (empty for in-memory runs).
  std::string SourcePath;
  const AnalysisResult *Result = nullptr;
  const PortfolioRunResult *Portfolio = nullptr;
  /// Worker threads the run was configured with (1 = deterministic mode).
  size_t Jobs = 1;
  double TimeoutSeconds = 0;
  /// Events the attached Trace forwarded during the run (0 when tracing
  /// was disabled).
  uint64_t TraceEvents = 0;
};

/// Writes the report's key/value fields into \p W. The enclosing object
/// must already be open and is left open, so callers can embed the
/// run-report schema inside their own documents (bench_fig5_multistage
/// and termcheckd's job reports do) or append members of their own.
void writeRunReportFields(json::Writer &W, const RunReportInput &In,
                          const RunReportOptions &Opts = {});

/// Writes one complete report document (object + trailing newline).
void writeRunReport(std::ostream &OS, const RunReportInput &In,
                    const RunReportOptions &Opts = {});

} // namespace termcheck

#endif // TERMCHECK_TERMINATION_RUNREPORT_H
