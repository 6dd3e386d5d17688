//===- tests/emptiness_equivalence_test.cpp - Engine differential gate ----===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The differential gate for the pluggable emptiness engines (DESIGN.md
/// section 17):
///
///  * 200+ seeded product differentials: Gaiser-Schwoon and Couvreur must
///    agree on every emptiness-only difference, and every witness an engine
///    returns must be a word of L(A) \ L(B) replayed against the originals,
///  * self-differences L(A) \ L(A) through the NCSB-Lazy and the modular
///    complement must come out empty under both engines,
///  * randomized explicit queries: checkEmptiness under every strategy vs
///    the reference isEmpty(), witnesses replayed, on plain BAs and on
///    degeneralized 2-condition GBAs,
///  * the small program suite and the on-disk corpus end to end: the
///    analyzer's verdicts under Gaiser-Schwoon and under Couvreur must
///    agree,
///  * cutoff-soundness units on the deep-SCC family: the structural
///    subsumption oracle drives the on-stack and closed-state cutoffs and
///    must never change a verdict, only shrink the explored set,
///  * the 18-entry roster (Couvreur entrants included) stays a byte-
///    deterministic sequential fallback under Jobs == 1,
///  * chaos: seeds that arm FaultSite::EmptinessStep may only ever weaken
///    verdicts, never flip them.
///
//===----------------------------------------------------------------------===//

#include "automata/Emptiness.h"

#include "automata/Difference.h"
#include "automata/ModularComplement.h"
#include "automata/Ncsb.h"
#include "automata/Ops.h"
#include "benchgen/ProgramFamilies.h"
#include "benchgen/RandomAutomata.h"
#include "program/Parser.h"
#include "support/Error.h"
#include "support/FaultInjector.h"
#include "termination/Portfolio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace termcheck;

namespace {

#ifndef TERMCHECK_CORPUS_DIR
#error "build must define TERMCHECK_CORPUS_DIR"
#endif

/// One seeded (A, B) product-differential instance: A is a random
/// nondeterministic BA, B a prepared SDBA complemented on the fly through
/// NCSB; the difference L(A) \ L(B) is decided under both engines.
struct ProductInstance {
  Buchi A;
  Buchi B;
  Sdba Prepared;
};

std::vector<ProductInstance> productCorpus(size_t Count, uint64_t Seed) {
  std::vector<ProductInstance> Out;
  Rng R(Seed);
  while (Out.size() < Count) {
    RandomAutomatonSpec ASpec;
    ASpec.NumStates = 4 + static_cast<uint32_t>(R.below(6));
    ASpec.Density = 1.1 + 0.1 * static_cast<double>(R.below(6));
    ASpec.AcceptPercent = 20 + static_cast<uint32_t>(R.below(40));
    Buchi A = randomBa(R, ASpec);
    Buchi B = randomSdba(R, 2 + static_cast<uint32_t>(R.below(3)),
                         2 + static_cast<uint32_t>(R.below(3)), 2);
    std::optional<Sdba> S = prepareSdba(B);
    if (!S)
      continue;
    Out.push_back({std::move(A), std::move(B), std::move(*S)});
  }
  return Out;
}

DifferenceResult runDifference(const ProductInstance &Inst,
                               EmptinessStrategy S, bool WantWitness) {
  NcsbOracle O(Inst.Prepared, NcsbVariant::Lazy);
  DifferenceOptions DO;
  DO.Emptiness = S;
  DO.EmptinessOnly = true;
  DO.WantWitness = WantWitness;
  return difference(Inst.A, O, DO);
}

} // namespace

TEST(EmptinessEquivalence, ProductDifferentialsAgreeAcrossEngines) {
  // The headline differential: 220 seeded products, both engines, zero
  // disagreements tolerated, every nonempty verdict backed by a replayable
  // witness word in L(A) \ L(B).
  std::vector<ProductInstance> Corpus = productCorpus(220, 0xD1FF0001);
  size_t Nonempty = 0, Witnessed = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    DifferenceResult G =
        runDifference(Corpus[I], EmptinessStrategy::GaiserSchwoon, false);
    DifferenceResult C =
        runDifference(Corpus[I], EmptinessStrategy::Couvreur, true);
    ASSERT_FALSE(G.Aborted) << "instance " << I;
    ASSERT_FALSE(C.Aborted) << "instance " << I;
    EXPECT_EQ(G.IsEmpty, C.IsEmpty)
        << "instance " << I << ": gaiser_schwoon says "
        << (G.IsEmpty ? "empty" : "nonempty") << ", couvreur disagrees";
    EXPECT_STREQ(C.EmptinessEngine, "couvreur") << "instance " << I;
    if (!C.IsEmpty) {
      ++Nonempty;
      ASSERT_TRUE(C.Witness.has_value()) << "instance " << I;
      EXPECT_TRUE(acceptsLasso(Corpus[I].A, *C.Witness))
          << "instance " << I << ": witness not in L(A)";
      EXPECT_FALSE(acceptsLasso(Corpus[I].B, *C.Witness))
          << "instance " << I << ": witness in L(B)";
      ++Witnessed;
    }
  }
  // The sweep must exercise both outcomes, or the agreement checks above
  // are vacuous.
  EXPECT_GT(Nonempty, 20u) << "corpus skewed all-empty";
  EXPECT_LT(Nonempty, Corpus.size()) << "corpus skewed all-nonempty";
  EXPECT_EQ(Witnessed, Nonempty);
}

TEST(EmptinessEquivalence, SelfDifferencesAreEmptyUnderBothEngines) {
  // L(A) \ L(A) is empty whatever the complement construction; both
  // engines must say so on emptiness-only queries. Covers the NCSB-Lazy
  // oracle on random SDBAs and the modular (mix-and-match) oracle on
  // class-mixed automata.
  const EmptinessStrategy Engines[2] = {EmptinessStrategy::GaiserSchwoon,
                                        EmptinessStrategy::Couvreur};
  Rng R(0xE3550002);
  size_t Ncsb = 0, Modular = 0;
  for (int I = 0; I < 60; ++I) {
    Buchi A = randomSdba(R, 1 + static_cast<uint32_t>(R.below(4)),
                         2 + static_cast<uint32_t>(R.below(6)), 2);
    std::optional<Sdba> S = prepareSdba(A);
    if (!S)
      continue;
    ++Ncsb;
    for (EmptinessStrategy E : Engines) {
      NcsbOracle O(*S, NcsbVariant::Lazy);
      DifferenceOptions DO;
      DO.Emptiness = E;
      DO.EmptinessOnly = true;
      DifferenceResult Res = difference(A, O, DO);
      ASSERT_FALSE(Res.Aborted) << "sdba " << I;
      EXPECT_TRUE(Res.IsEmpty) << "sdba " << I << ": NCSB self-difference "
                               << "nonempty under " << Res.EmptinessEngine;
    }
  }
  for (int Draw = 0; Draw < 300 && Modular < 30; ++Draw) {
    ClassMixedSpec Spec;
    Spec.PrefixStates = 1 + static_cast<uint32_t>(R.below(3));
    Spec.DetStates = static_cast<uint32_t>(R.below(3));
    Spec.WeakStates = static_cast<uint32_t>(R.below(3));
    Spec.SemiStates = static_cast<uint32_t>(R.below(3));
    Spec.GeneralStates = static_cast<uint32_t>(R.below(3));
    if (Spec.GeneralStates)
      Spec.PrefixStates = 1;
    if (Spec.DetStates + Spec.WeakStates + Spec.SemiStates +
            Spec.GeneralStates ==
        0)
      continue;
    Buchi A = randomClassMixedBa(R, Spec);
    // A few seeds blow the self-difference product up to tens of
    // thousands of macrostates; the cap skips them, keeping the sweep to
    // instances both engines finish in milliseconds.
    bool Skipped = false;
    for (EmptinessStrategy E : Engines) {
      auto Mod = buildModularComplement(A);
      if (!Mod) {
        Skipped = true;
        break;
      }
      DifferenceOptions DO;
      DO.Emptiness = E;
      DO.EmptinessOnly = true;
      DO.MaxProductStates = 1000;
      DifferenceResult Res = difference(A, *Mod, DO);
      if (Res.HitStateCap) {
        Skipped = true;
        break;
      }
      ASSERT_FALSE(Res.Aborted) << "class-mixed " << Modular;
      EXPECT_TRUE(Res.IsEmpty)
          << "class-mixed " << Modular << ": modular self-difference "
          << "nonempty under " << Res.EmptinessEngine << "\n" << A.str();
    }
    if (!Skipped)
      ++Modular;
  }
  EXPECT_GE(Ncsb, 30u);
  EXPECT_EQ(Modular, 30u);
}

TEST(EmptinessEquivalence, ExplicitQueriesMatchReference) {
  // checkEmptiness on explicit automata vs the reference decision
  // procedure, both strategies, witnesses replayed.
  Rng R(0xD1FF0002);
  size_t Nonempty = 0;
  for (int I = 0; I < 100; ++I) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 3 + static_cast<uint32_t>(R.below(10));
    Spec.AcceptPercent = 10 + static_cast<uint32_t>(R.below(50));
    Buchi A = randomBa(R, Spec);
    bool Ref = isEmpty(A);
    for (EmptinessStrategy S :
         {EmptinessStrategy::GaiserSchwoon, EmptinessStrategy::Couvreur}) {
      EmptinessOptions EO;
      EO.FindWitness = true;
      EmptinessResult Res = checkEmptiness(A, S, EO);
      ASSERT_FALSE(Res.Aborted);
      EXPECT_EQ(Res.IsEmpty, Ref)
          << "instance " << I << " under " << emptinessStrategyName(S);
      if (!Res.IsEmpty) {
        ASSERT_TRUE(Res.Witness.has_value())
            << "instance " << I << " under " << emptinessStrategyName(S);
        EXPECT_TRUE(acceptsLasso(A, *Res.Witness))
            << "instance " << I << " under " << emptinessStrategyName(S);
      }
    }
    if (!Ref)
      ++Nonempty;
  }
  EXPECT_GT(Nonempty, 10u);
  EXPECT_LT(Nonempty, 100u);

  // Degeneralized 2-condition GBAs: the counter construction must preserve
  // emptiness, so every engine on degeneralize(G) agrees with the
  // reference decision on G itself.
  Rng G2(911);
  size_t DegenNonempty = 0;
  for (int I = 0; I < 40; ++I) {
    Buchi G(2, 2);
    uint32_t N = 3 + static_cast<uint32_t>(G2.below(4));
    G.addStates(N);
    G.addInitial(0);
    for (State S = 0; S < N; ++S) {
      if (G2.chance(1, 3))
        G.setAccepting(S, 0);
      if (G2.chance(1, 3))
        G.setAccepting(S, 1);
      for (Symbol Sym = 0; Sym < 2; ++Sym)
        G.addTransition(S, Sym, static_cast<State>(G2.below(N)));
    }
    Buchi D = degeneralize(G);
    bool Ref = isEmpty(G);
    if (!Ref)
      ++DegenNonempty;
    for (EmptinessStrategy S :
         {EmptinessStrategy::GaiserSchwoon, EmptinessStrategy::Couvreur}) {
      EmptinessOptions EO;
      EO.FindWitness = true;
      EmptinessResult Res = checkEmptiness(D, S, EO);
      ASSERT_FALSE(Res.Aborted);
      EXPECT_EQ(Res.IsEmpty, Ref)
          << "degeneralized GBA " << I << " under "
          << emptinessStrategyName(S) << "\n" << G.str();
      if (!Res.IsEmpty) {
        ASSERT_TRUE(Res.Witness.has_value());
        EXPECT_TRUE(acceptsLasso(G, *Res.Witness))
            << "degeneralized GBA " << I << " under "
            << emptinessStrategyName(S);
      }
    }
  }
  EXPECT_GT(DegenNonempty, 0u);
  EXPECT_LT(DegenNonempty, 40u);
}

TEST(EmptinessEquivalence, CutoffsAreSoundOnDeepSccFamily) {
  // The deep-SCC family ships its own structural subsumption witness
  // (EchoOf): an early direct simulation by construction. Driving both
  // cutoffs with it must preserve every verdict while strictly shrinking
  // the explored set on this corridor-heavy shape.
  Rng R(0xD1FF0003);
  size_t TotalCutoffs = 0;
  for (int I = 0; I < 24; ++I) {
    DeepSccSpec Spec;
    Spec.Blocks = 3 + static_cast<uint32_t>(R.below(6));
    Spec.BlockStates = 2 + static_cast<uint32_t>(R.below(4));
    Spec.EchoesPerBlock = 1 + static_cast<uint32_t>(R.below(3));
    Spec.EchoLength = 4 + static_cast<uint32_t>(R.below(12));
    Spec.Nonempty = (I % 2) == 1;
    std::vector<State> EchoOf;
    Buchi A = randomDeepSccBa(R, Spec, &EchoOf);

    // checkEmptiness computes a full direct simulation when no relation is
    // supplied, so a genuinely cutoff-free baseline needs an explicit
    // equality-only (pure reflexive) relation.
    EmptinessOptions Plain;
    Plain.SubsumedBy = [](State Sub, State Sup) { return Sub == Sup; };
    Plain.FindWitness = true;
    EmptinessResult NoCutoff =
        checkEmptiness(A, EmptinessStrategy::Couvreur, Plain);

    EmptinessOptions WithOracle;
    WithOracle.SubsumedBy = [&EchoOf](State Sub, State Sup) {
      return Sub == Sup || EchoOf[Sub] == Sup;
    };
    WithOracle.SubsumptionIsEarly = true;
    WithOracle.FindWitness = true;
    EmptinessResult Cut =
        checkEmptiness(A, EmptinessStrategy::Couvreur, WithOracle);

    bool Ref = isEmpty(A);
    EXPECT_EQ(Ref, !Spec.Nonempty) << "instance " << I;
    EXPECT_EQ(NoCutoff.IsEmpty, Ref) << "instance " << I;
    EXPECT_EQ(Cut.IsEmpty, Ref)
        << "instance " << I << ": cutoffs changed the verdict";
    // A merge can invalidate a provisional on-stack prune and restart the
    // search without it; the cumulative explored count then legitimately
    // exceeds the cutoff-free run's, so only restart-free runs must shrink.
    if (Cut.CutoffRestarts == 0)
      EXPECT_LE(Cut.StatesExplored, NoCutoff.StatesExplored)
          << "instance " << I << ": cutoffs grew the explored set";
    if (!Cut.IsEmpty) {
      ASSERT_TRUE(Cut.Witness.has_value()) << "instance " << I;
      EXPECT_TRUE(acceptsLasso(A, *Cut.Witness)) << "instance " << I;
    }
    TotalCutoffs += Cut.OnStackCutoffs + Cut.ClosedCutoffs;
  }
  // The family exists to feed the cutoffs; if they never fire the "sound"
  // claim above is vacuous.
  EXPECT_GT(TotalCutoffs, 0u);
}

namespace {

std::vector<std::pair<std::string, Program>> loadCorpusPrograms() {
  std::vector<std::pair<std::string, Program>> Out;
  for (const auto &Entry :
       std::filesystem::directory_iterator(TERMCHECK_CORPUS_DIR)) {
    if (Entry.path().extension() != ".while")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ParseResult R = parseProgram(Buf.str());
    if (!R.ok())
      ADD_FAILURE() << Entry.path() << ": " << R.Error;
    else
      Out.emplace_back(Entry.path().stem().string(), std::move(*R.Prog));
  }
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    return A.first < B.first;
  });
  return Out;
}

} // namespace

TEST(EmptinessEquivalence, AnalyzerVerdictsAgreeAcrossEngines) {
  // The engines must be interchangeable inside the whole refinement loop,
  // not just on isolated queries. On the small program suite and the
  // on-disk corpus, every run that ends conclusive under both engines
  // reaches the same verdict with the same number of certified modules:
  // a nonempty Couvreur answer falls through to the same Algorithm 1
  // materialization, so the refinement sequence cannot differ, and an
  // engine that wrongly reports an empty remainder stops early.
  std::vector<std::pair<std::string, Program>> Programs = loadCorpusPrograms();
  for (const BenchProgram &B : smallBenchmarkSuite()) {
    ParseResult Parsed = parseProgram(B.Source);
    ASSERT_TRUE(Parsed.ok()) << B.Name << ": " << Parsed.Error;
    Programs.emplace_back(B.Name, std::move(*Parsed.Prog));
  }
  size_t Compared = 0;
  for (const auto &[Name, Prog] : Programs) {
    AnalysisResult R[2];
    const EmptinessStrategy Engines[2] = {EmptinessStrategy::GaiserSchwoon,
                                          EmptinessStrategy::Couvreur};
    for (int E = 0; E < 2; ++E) {
      AnalyzerOptions Opts;
      Opts.Emptiness = Engines[E];
      Opts.TimeoutSeconds = 5;
      Opts.MaxIterations = 80;
      Program Local = Prog;
      TerminationAnalyzer A(Local, Opts);
      R[E] = A.run();
    }
    if (isConclusive(R[0].V) && isConclusive(R[1].V)) {
      EXPECT_EQ(R[0].V, R[1].V) << Name << ": gaiser_schwoon and couvreur "
                                << "reach different verdicts";
      EXPECT_EQ(R[0].Modules.size(), R[1].Modules.size())
          << Name << ": gaiser_schwoon and couvreur certify different "
          << "module counts";
      ++Compared;
    }
  }
  // Nearly every program is conclusive under both engines; a sweep that
  // compares few would make the agreement above vacuous.
  EXPECT_GE(Compared, Programs.size() - 4);
}

TEST(EmptinessEquivalence, FullRosterIsDeterministicSequentially) {
  // The 18-entry roster includes the two Couvreur entrants; under Jobs == 1
  // the runner must stay a byte-deterministic sequential fallback with them
  // aboard (the engine's counters feed the statistics dump, so any
  // nondeterminism in the search order would show up here).
  std::vector<std::pair<std::string, Program>> Corpus = loadCorpusPrograms();
  ASSERT_GE(Corpus.size(), 6u);
  std::vector<PortfolioConfig> Configs = defaultPortfolio(18);
  ASSERT_EQ(Configs.size(), 18u);
  // A subset keeps the test inside its budget; the portfolio suite already
  // sweeps the whole corpus with the shorter roster.
  for (size_t I = 0; I < Corpus.size(); I += 3) {
    PortfolioOptions PO;
    PO.Jobs = 1;
    PO.TimeoutSeconds = 30;
    PortfolioRunResult First = runPortfolio(Corpus[I].second, Configs, PO);
    PortfolioRunResult Second = runPortfolio(Corpus[I].second, Configs, PO);
    EXPECT_EQ(First.Result.V, Second.Result.V) << Corpus[I].first;
    EXPECT_EQ(First.WinnerIndex, Second.WinnerIndex) << Corpus[I].first;
    EXPECT_EQ(First.Merged.str(), Second.Merged.str())
        << Corpus[I].first << ": statistics dump must be byte-identical";
  }
}

TEST(EmptinessEquivalence, EmptinessFaultsOnlyWeakenVerdicts) {
  // Chaos for the new fault site: every seed whose plan arms
  // FaultSite::EmptinessStep runs the analyzer with the Couvreur engine
  // forced on; a contained fault may cost the verdict, never flip it.
  std::map<std::string, Verdict> Expected;
  {
    std::ifstream In(std::string(TERMCHECK_CORPUS_DIR) +
                     "/EXPECTATIONS.txt");
    ASSERT_TRUE(In.good()) << "missing EXPECTATIONS.txt";
    std::string Name, V;
    while (In >> Name >> V) {
      if (!Name.empty() && Name[0] == '#') {
        std::string Rest;
        std::getline(In, Rest);
        continue;
      }
      Expected[Name] = V == "NONTERMINATING" ? Verdict::Nonterminating
                                             : Verdict::Terminating;
    }
  }
  std::vector<std::pair<std::string, Program>> Corpus = loadCorpusPrograms();
  ASSERT_FALSE(Corpus.empty());

  size_t Armed = 0, Fired = 0;
  for (uint64_t Seed = 1; Seed <= 160 && Armed < 24; ++Seed) {
    FaultInjector::arm(Seed);
    bool Hits = FaultInjector::plannedTrigger(FaultSite::EmptinessStep) != 0;
    FaultInjector::disarm();
    if (!Hits)
      continue;
    ++Armed;
    auto &[Name, Prog] = Corpus[Seed % Corpus.size()];
    auto It = Expected.find(Prog.name());
    if (It == Expected.end())
      continue;

    AnalyzerOptions Opts;
    Opts.TimeoutSeconds = 5;
    Opts.Emptiness = EmptinessStrategy::Couvreur;
    FaultInjector::arm(Seed);
    Program Local = Prog;
    TerminationAnalyzer A(Local, Opts);
    ErrorOr<AnalysisResult> R = errorOrOf([&A] { return A.run(); });
    if (FaultInjector::firedCount() != 0)
      ++Fired;
    FaultInjector::disarm();
    if (!R.ok())
      continue; // captured at the boundary: contained, just inconclusive
    if (isConclusive(R.value().V))
      EXPECT_EQ(R.value().V, It->second)
          << Name << " flipped verdict under fault seed " << Seed;
  }
  EXPECT_GT(Armed, 0u) << "no seed armed EmptinessStep; plan derivation stale?";
  EXPECT_GT(Fired, 0u) << "armed faults never fired; site unreachable?";
}
