//===- perfbench/driver/Corpus.cpp - Benchmark inputs and oracles ---------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "benchgen/CorpusEmit.h"
#include "program/Parser.h"
#include "support/Rng.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

using namespace termcheck;
using namespace termcheck::perfbench;

namespace {

/// The completeness gaps of the shipped corpus (ROADMAP, aim 3): gcd_like
/// times out, lexicographic_hard needs a multiphase ranking.
bool isKnownGap(const BenchProgram &B) {
  return B.Expect == Expected::Hard || B.Name == "gcd_like";
}

std::vector<Task> fromBench(const std::vector<BenchProgram> &Programs,
                            const char *Origin) {
  std::vector<Task> Out;
  Out.reserve(Programs.size());
  for (const BenchProgram &B : Programs)
    Out.push_back({B.Name, Origin, B.Source, B.Expect, isKnownGap(B)});
  return Out;
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read " + Path.string());
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

std::vector<Task> termcheck::perfbench::figure5Suite() {
  return fromBench(benchmarkSuite(), "suite");
}

std::vector<Task> termcheck::perfbench::diskCorpus(const std::string &Dir) {
  std::map<std::string, Expected> Oracle;
  std::istringstream Lines(readFile(std::filesystem::path(Dir) /
                                    "EXPECTATIONS.txt"));
  for (std::string Line; std::getline(Lines, Line);) {
    std::istringstream Fields(Line);
    std::string Name, Verdict;
    if (!(Fields >> Name >> Verdict) || Name[0] == '#')
      continue;
    if (Verdict == "TERMINATING")
      Oracle[Name] = Expected::Terminating;
    else if (Verdict == "NONTERMINATING")
      Oracle[Name] = Expected::Nonterminating;
    else
      throw std::runtime_error("unknown oracle verdict '" + Verdict +
                               "' for " + Name);
  }

  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".while")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());

  std::vector<Task> Out;
  for (const auto &Path : Files) {
    std::string Source = readFile(Path);
    ParseResult PR = parseProgram(Source);
    if (!PR.ok())
      throw std::runtime_error(Path.string() + ": " + PR.Error);
    auto It = Oracle.find(PR.Prog->name());
    if (It == Oracle.end())
      throw std::runtime_error(Path.string() + ": program '" +
                               PR.Prog->name() + "' has no oracle line");
    Out.push_back({PR.Prog->name(), "disk", std::move(Source), It->second,
                   false});
  }
  if (Out.empty())
    throw std::runtime_error("no .while programs under " + Dir);
  return Out;
}

std::vector<Task>
termcheck::perfbench::randomDraw(uint64_t Seed, size_t Count,
                                 const std::string &Origin,
                                 const std::string &Prefix) {
  Rng R(Seed);
  std::vector<Task> Out = fromBench(randomPrograms(R, Count), Origin.c_str());
  for (Task &T : Out)
    T.Name = Prefix + T.Name;
  return Out;
}

std::vector<Task> termcheck::perfbench::batchDraw(uint64_t Seed,
                                                  size_t Count) {
  Rng R(Seed);
  return fromBench(batchPrograms(R, Count), "batch");
}

Outcome termcheck::perfbench::judge(const Task &T, Verdict V,
                                    std::string &Why) {
  const bool Terminates = T.Expect != Expected::Nonterminating;
  if (V == Verdict::Terminating || V == Verdict::Nonterminating) {
    if ((V == Verdict::Terminating) == Terminates)
      return Outcome::Solved;
    Why = std::string("wrong verdict ") + verdictName(V);
    return Outcome::Error;
  }
  if (T.KnownGap)
    return Outcome::Unsolved;
  Why = std::string("inconclusive verdict ") + verdictName(V) +
        " outside the known gaps";
  return Outcome::Error;
}
