//===- perfbench/driver/Corpus.h - Benchmark inputs and oracles -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The task lists the three workloads run, each task carrying its verdict
/// oracle, and the rule that scores a verdict against it. Every seeded
/// draw is generated from the workload seed alone, so one seed always
/// gives the same inputs.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_PERFBENCH_CORPUS_H
#define TERMCHECK_PERFBENCH_CORPUS_H

#include "benchgen/ProgramFamilies.h"
#include "termination/Analyzer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace termcheck {
namespace perfbench {

/// One benchmark input.
struct Task {
  /// Corpus name (the suite or generator name; for on-disk programs the
  /// `program <name>` the oracle file is keyed on).
  std::string Name;
  /// Where the task comes from: suite, disk, random or batch.
  std::string Origin;
  std::string Source;
  Expected Expect = Expected::Terminating;
  /// A completeness gap the ROADMAP lists: an inconclusive verdict here is
  /// unsolved, not an error.
  bool KnownGap = false;
};

/// The Figure 5 benchmarkSuite(), known gaps marked.
std::vector<Task> figure5Suite();

/// The on-disk corpus: every `*.while` under \p Dir, each scored against
/// the `<name> <VERDICT>` line of `<Dir>/EXPECTATIONS.txt`. Throws
/// std::runtime_error when a file does not parse or has no oracle line.
std::vector<Task> diskCorpus(const std::string &Dir);

/// \p Count randomPrograms drawn from \p Seed (oracle: terminating), named
/// \p Prefix + the generator's name and tagged with origin \p Origin.
std::vector<Task> randomDraw(uint64_t Seed, size_t Count,
                             const std::string &Origin,
                             const std::string &Prefix = "");

/// \p Count batchPrograms template instances drawn from \p Seed (exact
/// oracles, no gaps).
std::vector<Task> batchDraw(uint64_t Seed, size_t Count);

/// How one verdict scores against its task's oracle.
enum class Outcome : uint8_t {
  Solved,   ///< conclusive and equal to the oracle
  Unsolved, ///< inconclusive on a known gap
  Error,    ///< wrong verdict, or inconclusive outside the known gaps
};

/// Scores \p V; on Error, \p Why says what went wrong.
Outcome judge(const Task &T, Verdict V, std::string &Why);

} // namespace perfbench
} // namespace termcheck

#endif // TERMCHECK_PERFBENCH_CORPUS_H
