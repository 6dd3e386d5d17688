//===- bench/BenchSupport.h - Shared benchmark harness helpers -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the table/figure reproduction binaries: the SDBA
/// corpus (harvested + generated, substituting for the paper's 1159
/// Ultimate-produced SDBAs), analysis-run helpers with per-task budgets,
/// and tiny table formatting.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_BENCH_BENCHSUPPORT_H
#define TERMCHECK_BENCH_BENCHSUPPORT_H

#include "benchgen/ProgramFamilies.h"
#include "benchgen/RandomAutomata.h"
#include "benchgen/SdbaHarvest.h"
#include "program/Parser.h"
#include "support/Json.h"
#include "termination/Analyzer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace termcheck {
namespace bench {

/// Every harness's --json document is stamped with this schema pair; the
/// per-run objects inside embed the termcheck-run-report fields (see
/// termination/RunReport.h and DESIGN.md section 11), so one consumer
/// reads CLI reports and bench snapshots alike.
inline constexpr const char *BenchReportSchemaName = "termcheck-bench-report";
inline constexpr int BenchReportSchemaVersion = 1;

/// Writes the shared bench document header into an open object.
inline void beginBenchReport(json::Writer &W, const char *BenchName) {
  W.field("schema", BenchReportSchemaName);
  W.field("schema_version", static_cast<int64_t>(BenchReportSchemaVersion));
  W.field("bench", BenchName);
}

/// Strips a `--json <path>` flag out of (Argc, Argv) in place; returns the
/// path ("" = flag absent, "-" = stdout). Exits with status 1 on a
/// dangling flag so every harness diagnoses it the same way.
inline std::string takeJsonFlag(int &Argc, char **Argv) {
  std::string Path;
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s: --json needs a path\n", Argv[0]);
        std::exit(1);
      }
      Path = Argv[++I];
    } else {
      Argv[Out++] = Argv[I];
    }
  }
  Argc = Out;
  return Path;
}

/// Strips a `--repeat N` flag out of (Argc, Argv) in place; returns N
/// (default 1). Walls are then reported as the median of N runs: medians
/// shrug off the one-off scheduling hiccups that make single-shot walls
/// flap. Exits with status 1 on a dangling or non-positive N.
inline unsigned takeRepeatFlag(int &Argc, char **Argv) {
  unsigned Repeat = 1;
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--repeat") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s: --repeat needs a count\n", Argv[0]);
        std::exit(1);
      }
      long N = std::atol(Argv[++I]);
      if (N <= 0) {
        std::fprintf(stderr, "%s: --repeat needs a positive count\n", Argv[0]);
        std::exit(1);
      }
      Repeat = static_cast<unsigned>(N);
    } else {
      Argv[Out++] = Argv[I];
    }
  }
  Argc = Out;
  return Repeat;
}

/// Runs \p F() \p Repeat (>= 1) times and \returns the median of its
/// returned wall-clock samples; even counts average the two middle samples.
template <typename Fn> inline double medianWall(unsigned Repeat, Fn &&F) {
  std::vector<double> Samples;
  for (unsigned I = 0; I < Repeat; ++I)
    Samples.push_back(F());
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2]
               : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

/// Writes the finished --json document to \p Path ('-' = stdout).
/// \returns false (with a diagnostic) when the file cannot be created.
inline bool writeJsonDocument(const std::string &Path,
                              const std::string &Doc) {
  if (Path == "-") {
    std::fputs(Doc.c_str(), stdout);
    return true;
  }
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "bench: cannot write %s\n", Path.c_str());
    return false;
  }
  Out << Doc;
  return true;
}

/// One SDBA corpus entry.
struct CorpusSdba {
  std::string Name;
  Buchi A;
};

/// Builds the Figure 4 corpus: SDBAs harvested from analysis runs over the
/// benchmark suite plus seeded random SDBAs of growing size.
inline std::vector<CorpusSdba> sdbaCorpus(size_t RandomCount = 120,
                                          double HarvestTimeout = 1.0) {
  std::vector<CorpusSdba> Corpus;
  std::vector<Buchi> Harvested =
      harvestSdbas(smallBenchmarkSuite(), HarvestTimeout);
  for (size_t I = 0; I < Harvested.size(); ++I)
    Corpus.push_back({"harvest_" + std::to_string(I), Harvested[I]});
  Rng R(0xF1640001);
  for (size_t I = 0; I < RandomCount; ++I) {
    uint32_t Q1 = 1 + static_cast<uint32_t>(R.below(6));
    uint32_t Q2 = 3 + static_cast<uint32_t>(R.below(9));
    uint32_t Symbols = 2 + static_cast<uint32_t>(R.below(3));
    Corpus.push_back(
        {"random_" + std::to_string(I), randomSdba(R, Q1, Q2, Symbols)});
  }
  return Corpus;
}

/// Runs the analyzer on WHILE source with the given options and budget.
inline AnalysisResult runTask(const BenchProgram &B, AnalyzerOptions Opts,
                              double TimeoutSeconds, uint64_t MaxIters = 80) {
  ParseResult R = parseProgram(B.Source);
  if (!R.ok()) {
    std::fprintf(stderr, "bench: parse error in %s: %s\n", B.Name.c_str(),
                 R.Error.c_str());
    AnalysisResult Fail;
    Fail.V = Verdict::Unknown;
    return Fail;
  }
  Opts.TimeoutSeconds = TimeoutSeconds;
  Opts.MaxIterations = MaxIters;
  TerminationAnalyzer A(*R.Prog, Opts);
  return A.run();
}

/// "Solved" in the paper's sense: a conclusive verdict within budget. A
/// nonterminating program counts only when the recurrence prover delivered
/// a validated certificate -- an Unknown counterexample is not a proof.
inline bool solved(const AnalysisResult &R, Expected E) {
  if (E == Expected::Terminating)
    return R.V == Verdict::Terminating;
  if (E == Expected::Nonterminating)
    return R.V == Verdict::Nonterminating;
  return false; // Hard: nobody solves it
}

inline void hr() {
  std::printf("-------------------------------------------------------------"
              "-----------------\n");
}

} // namespace bench
} // namespace termcheck

#endif // TERMCHECK_BENCH_BENCHSUPPORT_H
