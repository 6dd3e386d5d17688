//===- tests/emptiness_equivalence_test.cpp - Emptiness differential gate -===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The differential gate for the SCC search and the two emptiness
/// strategies of difference() (DESIGN.md section 17). Both strategies run
/// the same SccSearch core, so every check compares against a reference
/// that shares no code with it: findAcceptingLasso (Tarjan plus BFS) over
/// explicitly materialized automata.
///
///  * 220 seeded product differentials: difference() under both strategies
///    vs findAcceptingLasso over A x NCSB(B) materialized; every nonempty
///    difference yields a lasso in L(A) \ L(B), replayed on the originals,
///  * self-differences L(A) \ L(A) through the NCSB-Lazy and the modular
///    complement must come out empty under both strategies,
///  * randomized explicit queries: the core in both modes, with and
///    without a direct-simulation cutoff relation, vs the reference, on
///    plain BAs and on degeneralized 2-condition GBAs,
///  * cutoff-soundness units on the deep-SCC family: the structural
///    subsumption oracle drives the on-stack and closed-state cutoffs and
///    must never change a verdict, only shrink the explored set,
///  * the cutoff rule: classify mode given an early relation returns
///    exactly the cutoff-free useful set (materialization never loses a
///    pruned state), while first-accepting mode prunes with it,
///  * the small program suite and the on-disk corpus end to end: the
///    analyzer's verdicts and module counts under both strategies agree,
///  * the 18-entry roster (Couvreur entrants included) stays a byte-
///    deterministic sequential fallback under Jobs == 1,
///  * chaos: seeds that arm FaultSite::EmptinessStep may only ever weaken
///    verdicts, never flip them.
///
//===----------------------------------------------------------------------===//

#include "automata/Scc.h"

#include "automata/Difference.h"
#include "automata/Interner.h"
#include "automata/ModularComplement.h"
#include "automata/Ncsb.h"
#include "automata/Ops.h"
#include "automata/Simulation.h"
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

const EmptinessStrategy Strategies[2] = {EmptinessStrategy::GaiserSchwoon,
                                         EmptinessStrategy::Couvreur};

/// One seeded (A, B) product-differential instance: A is a random
/// nondeterministic BA, B a prepared SDBA complemented on the fly through
/// NCSB; the difference L(A) \ L(B) is decided under both strategies.
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
                               EmptinessStrategy S) {
  NcsbOracle O(Inst.Prepared, NcsbVariant::Lazy);
  DifferenceOptions DO;
  DO.Emptiness = S;
  return difference(Inst.A, O, DO);
}

/// A x B-bar over an explicit A and a complement oracle, with the
/// oracle's subsumption lifted to product states: the product difference()
/// searches, rebuilt here so the core runs under a relation the test owns.
class OracleProduct : public GbaSource {
public:
  OracleProduct(const Buchi &A, ComplementOracle &BC) : A(A), BC(BC) {}

  uint64_t fullMask() const override { return (A.fullMask() << 1) | 1; }
  std::vector<State> initialStates() override {
    std::vector<State> Out;
    for (State P : A.initials().elems())
      for (State Q : BC.initialStates())
        Out.push_back(Pairs.intern(P, Q).first);
    return Out;
  }
  uint64_t acceptMask(State S) override {
    auto [P, Q] = Pairs.get(S);
    return (A.acceptMask(P) << 1) | (BC.isAccepting(Q) ? 1 : 0);
  }
  void arcs(State S, std::vector<Buchi::Arc> &Out) override {
    auto [P, Q] = Pairs.get(S);
    std::vector<State> Succ;
    for (const Buchi::Arc &ArcA : A.arcsFrom(P)) {
      Succ.clear();
      BC.successors(Q, ArcA.Sym, Succ);
      for (State CTo : Succ)
        Out.push_back({ArcA.Sym, Pairs.intern(ArcA.To, CTo).first});
    }
  }
  bool subsumedBy(State Sub, State Sup) const {
    auto [PA, QA] = Pairs.get(Sub);
    auto [PB, QB] = Pairs.get(Sup);
    return PA == PB && BC.subsumedBy(QA, QB);
  }

private:
  const Buchi &A;
  ComplementOracle &BC;
  PairInterner Pairs;
};

using Relation = std::function<bool(State, State)>;

/// A closed-state antichain under \p Rel wired into SccSearch's emp hooks,
/// the way difference() wires its per-A-state one.
struct TestAntichain {
  Relation Rel;
  std::vector<State> Chain;

  void attach(SccSearch &S) {
    S.IsKnownUseless = [this](State Q) {
      return std::any_of(Chain.begin(), Chain.end(),
                         [&](State R) { return Rel(Q, R); });
    };
    S.AddUseless = [this](State Q) {
      for (State R : Chain)
        if (Rel(Q, R))
          return;
      std::erase_if(Chain, [&](State R) { return Rel(R, Q); });
      Chain.push_back(Q);
    };
    S.ResetUseless = [this] { Chain.clear(); };
  }
};

/// Runs the core over explicit \p A in \p Mode. A non-null \p Rel is the
/// emp antichain's relation and, in first-accepting mode, the on-stack
/// cutoff relation too.
SccSearchResult searchExplicit(const Buchi &A, SccSearchMode Mode,
                               const Relation &Rel) {
  ExplicitGbaSource Src(A);
  SccSearch Search(Mode);
  TestAntichain Emp{Rel, {}};
  if (Rel) {
    Emp.attach(Search);
    Search.SubsumedBy = Rel;
  }
  return Search.run(Src);
}

/// The explicit queries every configuration of the core must answer like
/// the reference: both modes, bare and with the direct simulation of \p A.
void expectCoreMatchesReference(const Buchi &A, bool RefEmpty,
                                const std::string &What) {
  SimulationRelation Sim = computeDirectSimulation(A);
  Relation Direct = [&Sim](State Sub, State Sup) {
    return Sim.simulates(Sub, Sup);
  };
  for (SccSearchMode Mode :
       {SccSearchMode::Classify, SccSearchMode::FirstAccepting}) {
    for (const Relation &Rel : {Relation(), Direct}) {
      SccSearchResult R = searchExplicit(A, Mode, Rel);
      ASSERT_FALSE(R.Aborted);
      EXPECT_EQ(R.LanguageEmpty, RefEmpty)
          << What << " in "
          << (Mode == SccSearchMode::Classify ? "classify" : "first-accepting")
          << " mode " << (Rel ? "with" : "without") << " direct simulation";
    }
  }
}

} // namespace

TEST(EmptinessEquivalence, ProductDifferentialsAgreeAcrossEngines) {
  // The headline differential: 220 seeded products, both strategies vs an
  // explicit reference (NCSB complement materialized, product searched
  // with Tarjan plus BFS), zero disagreements tolerated. Every nonempty
  // difference must contain a lasso of L(A) \ L(B).
  std::vector<ProductInstance> Corpus = productCorpus(220, 0xD1FF0001);
  size_t Nonempty = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    const ProductInstance &Inst = Corpus[I];
    Buchi Complement =
        trim(NcsbOracle(Inst.Prepared, NcsbVariant::Lazy).materialize());
    bool RefEmpty =
        !findAcceptingLasso(intersect(Inst.A, Complement)).has_value();
    Nonempty += RefEmpty ? 0 : 1;
    size_t States[2];
    for (int E = 0; E < 2; ++E) {
      DifferenceResult D = runDifference(Inst, Strategies[E]);
      const char *Name = emptinessStrategyName(Strategies[E]);
      ASSERT_FALSE(D.Aborted) << "instance " << I << " under " << Name;
      EXPECT_EQ(D.Emptiness, Strategies[E]) << "instance " << I;
      EXPECT_EQ(D.IsEmpty, RefEmpty)
          << "instance " << I << ": " << Name << " says "
          << (D.IsEmpty ? "empty" : "nonempty") << ", the reference disagrees";
      States[E] = D.D.numStates();
      if (D.IsEmpty) {
        EXPECT_EQ(D.D.numStates(), 0u) << "instance " << I << " under " << Name;
        continue;
      }
      std::optional<LassoWord> W = findAcceptingLasso(D.D);
      ASSERT_TRUE(W.has_value()) << "instance " << I << " under " << Name;
      EXPECT_TRUE(acceptsLasso(Inst.A, *W))
          << "instance " << I << " under " << Name << ": word not in L(A)";
      EXPECT_FALSE(acceptsLasso(Inst.B, *W))
          << "instance " << I << " under " << Name << ": word in L(B)";
    }
    // A nonempty Couvreur pass falls through to the same classify pass.
    EXPECT_EQ(States[0], States[1]) << "instance " << I;
  }
  // The sweep must exercise both outcomes, or the agreement checks above
  // are vacuous.
  EXPECT_GT(Nonempty, 20u) << "corpus skewed all-empty";
  EXPECT_LT(Nonempty, Corpus.size()) << "corpus skewed all-nonempty";
}

TEST(EmptinessEquivalence, SelfDifferencesAreEmptyUnderBothEngines) {
  // L(A) \ L(A) is empty whatever the complement construction; both
  // strategies must say so. Covers the NCSB-Lazy oracle on random SDBAs
  // and the modular (mix-and-match) oracle on class-mixed automata.
  Rng R(0xE3550002);
  size_t Ncsb = 0, Modular = 0;
  for (int I = 0; I < 60; ++I) {
    Buchi A = randomSdba(R, 1 + static_cast<uint32_t>(R.below(4)),
                         2 + static_cast<uint32_t>(R.below(6)), 2);
    std::optional<Sdba> S = prepareSdba(A);
    if (!S)
      continue;
    ++Ncsb;
    for (EmptinessStrategy E : Strategies) {
      NcsbOracle O(*S, NcsbVariant::Lazy);
      DifferenceOptions DO;
      DO.Emptiness = E;
      DifferenceResult Res = difference(A, O, DO);
      ASSERT_FALSE(Res.Aborted) << "sdba " << I;
      EXPECT_TRUE(Res.IsEmpty) << "sdba " << I << ": NCSB self-difference "
                               << "nonempty under " << emptinessStrategyName(Res.Emptiness);
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
    // instances both strategies finish in milliseconds.
    bool Skipped = false;
    for (EmptinessStrategy E : Strategies) {
      auto Mod = buildModularComplement(A);
      if (!Mod) {
        Skipped = true;
        break;
      }
      DifferenceOptions DO;
      DO.Emptiness = E;
      DO.MaxProductStates = 1000;
      DifferenceResult Res = difference(A, *Mod, DO);
      if (Res.HitStateCap) {
        Skipped = true;
        break;
      }
      ASSERT_FALSE(Res.Aborted) << "class-mixed " << Modular;
      EXPECT_TRUE(Res.IsEmpty)
          << "class-mixed " << Modular << ": modular self-difference "
          << "nonempty under " << emptinessStrategyName(Res.Emptiness) << "\n" << A.str();
    }
    if (!Skipped)
      ++Modular;
  }
  EXPECT_GE(Ncsb, 30u);
  EXPECT_EQ(Modular, 30u);
}

TEST(EmptinessEquivalence, ExplicitQueriesMatchReference) {
  // The core on explicit automata vs the reference decision procedure,
  // in both modes, bare and with a direct-simulation cutoff relation.
  Rng R(0xD1FF0002);
  size_t Nonempty = 0;
  for (int I = 0; I < 100; ++I) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 3 + static_cast<uint32_t>(R.below(10));
    Spec.AcceptPercent = 10 + static_cast<uint32_t>(R.below(50));
    Buchi A = randomBa(R, Spec);
    bool Ref = !findAcceptingLasso(A).has_value();
    expectCoreMatchesReference(A, Ref, "instance " + std::to_string(I));
    if (!Ref)
      ++Nonempty;
  }
  EXPECT_GT(Nonempty, 10u);
  EXPECT_LT(Nonempty, 100u);

  // Degeneralized 2-condition GBAs: the counter construction must preserve
  // emptiness, so the core on degeneralize(G) agrees with the reference
  // decision on G itself.
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
    bool Ref = !findAcceptingLasso(G).has_value();
    if (!Ref)
      ++DegenNonempty;
    expectCoreMatchesReference(degeneralize(G), Ref,
                               "degeneralized GBA " + std::to_string(I) +
                                   "\n" + G.str());
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
  size_t OnStack = 0, Closed = 0;
  for (int I = 0; I < 24; ++I) {
    DeepSccSpec Spec;
    Spec.Blocks = 3 + static_cast<uint32_t>(R.below(6));
    Spec.BlockStates = 2 + static_cast<uint32_t>(R.below(4));
    Spec.EchoesPerBlock = 1 + static_cast<uint32_t>(R.below(3));
    Spec.EchoLength = 4 + static_cast<uint32_t>(R.below(12));
    Spec.Nonempty = (I % 2) == 1;
    std::vector<State> EchoOf;
    Buchi A = randomDeepSccBa(R, Spec, &EchoOf);
    Relation Echo = [&EchoOf](State Sub, State Sup) {
      return Sub == Sup || EchoOf[Sub] == Sup;
    };

    bool Ref = !findAcceptingLasso(A).has_value();
    EXPECT_EQ(Ref, !Spec.Nonempty) << "instance " << I;
    SccSearchResult NoCutoff =
        searchExplicit(A, SccSearchMode::FirstAccepting, Relation());
    SccSearchResult Cut = searchExplicit(A, SccSearchMode::FirstAccepting,
                                         Echo);
    EXPECT_EQ(NoCutoff.LanguageEmpty, Ref) << "instance " << I;
    EXPECT_EQ(Cut.LanguageEmpty, Ref)
        << "instance " << I << ": cutoffs changed the verdict";
    // A merge can invalidate a provisional on-stack prune and restart the
    // search without it; the cumulative explored count then legitimately
    // exceeds the cutoff-free run's, so only restart-free runs must shrink.
    if (Cut.CutoffRestarts == 0) {
      EXPECT_LE(Cut.StatesExplored, NoCutoff.StatesExplored)
          << "instance " << I << ": cutoffs grew the explored set";
    }
    OnStack += Cut.OnStackCutoffs;
    Closed += Cut.ClosedCutoffs;
  }
  // The family exists to feed the cutoffs; if they never fire the "sound"
  // claim above is vacuous.
  EXPECT_GT(OnStack, 0u);
  EXPECT_GT(Closed, 0u);
}

TEST(EmptinessEquivalence, ClassifyModeNeverAppliesOnStackCutoffs) {
  // The cutoff rule: an on-stack prune leaves a state unclassified, so
  // Algorithm 1 must ignore SubsumedBy or materialization would drop
  // useful states. Given an early relation (NCSB-Lazy's, lifted to the
  // product; the deep-SCC family's echo witness), classify mode must
  // return exactly the cutoff-free useful set, while first-accepting mode
  // does prune with the same relation -- otherwise this check is vacuous.
  size_t Pruning = 0, Useful = 0;
  std::vector<ProductInstance> Corpus = productCorpus(120, 0xC1A55001);
  for (size_t I = 0; I < Corpus.size(); ++I) {
    NcsbOracle O(Corpus[I].Prepared, NcsbVariant::Lazy);
    ASSERT_TRUE(O.subsumptionIsEarly());
    OracleProduct P(Corpus[I].A, O);
    Relation Rel = [&P](State Sub, State Sup) {
      return P.subsumedBy(Sub, Sup);
    };
    SccSearchResult Ref = SccSearch(SccSearchMode::Classify).run(P);
    SccSearch WithRel(SccSearchMode::Classify);
    WithRel.SubsumedBy = Rel;
    SccSearchResult R = WithRel.run(P);
    EXPECT_EQ(R.Useful, Ref.Useful) << "product " << I;
    EXPECT_EQ(R.LanguageEmpty, Ref.LanguageEmpty) << "product " << I;
    EXPECT_EQ(R.StatesExplored, Ref.StatesExplored) << "product " << I;
    EXPECT_EQ(R.OnStackCutoffs, 0u) << "product " << I;
    Useful += Ref.Useful.size();

    SccSearch First(SccSearchMode::FirstAccepting);
    First.SubsumedBy = Rel;
    SccSearchResult F = First.run(P);
    EXPECT_EQ(F.LanguageEmpty, Ref.LanguageEmpty) << "product " << I;
    Pruning += F.OnStackCutoffs != 0 ? 1 : 0;
  }
  Rng R(0xC1A55002);
  for (int I = 0; I < 24; ++I) {
    DeepSccSpec Spec;
    Spec.Blocks = 2 + static_cast<uint32_t>(R.below(4));
    Spec.EchoLength = 2 + static_cast<uint32_t>(R.below(6));
    Spec.Nonempty = true;
    std::vector<State> EchoOf;
    Buchi A = randomDeepSccBa(R, Spec, &EchoOf);
    ExplicitGbaSource Src(A);
    SccSearchResult Ref = SccSearch(SccSearchMode::Classify).run(Src);
    SccSearch WithRel(SccSearchMode::Classify);
    WithRel.SubsumedBy = [&EchoOf](State Sub, State Sup) {
      return Sub == Sup || EchoOf[Sub] == Sup;
    };
    SccSearchResult Res = WithRel.run(Src);
    EXPECT_EQ(Res.Useful, Ref.Useful) << "deep-SCC instance " << I;
    EXPECT_EQ(Res.OnStackCutoffs, 0u) << "deep-SCC instance " << I;
    Useful += Ref.Useful.size();
  }
  EXPECT_GT(Useful, 0u);
  EXPECT_GT(Pruning, 0u) << "the relation never prunes; the check is vacuous";
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
    for (int E = 0; E < 2; ++E) {
      AnalyzerOptions Opts;
      Opts.Emptiness = Strategies[E];
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
  // FaultSite::EmptinessStep runs the analyzer with the Couvreur strategy
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
    if (isConclusive(R.value().V)) {
      EXPECT_EQ(R.value().V, It->second)
          << Name << " flipped verdict under fault seed " << Seed;
    }
  }
  EXPECT_GT(Armed, 0u) << "no seed armed EmptinessStep; plan derivation stale?";
  EXPECT_GT(Fired, 0u) << "armed faults never fired; site unreachable?";
}
