//===- tests/complement_property_test.cpp - Complement correctness --------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The central complement property: for every automaton A and ultimately
/// periodic word w, exactly one of A and A-complement accepts w. Checked
/// for every complementation procedure in the library on seeded random
/// corpora.
///
//===----------------------------------------------------------------------===//

#include "InclusionOracle.h"

#include "automata/DbaComplement.h"
#include "automata/FiniteTraceComplement.h"
#include "automata/Ncsb.h"
#include "automata/Ops.h"
#include "automata/RankComplement.h"
#include "automata/Scc.h"
#include "benchgen/RandomAutomata.h"

#include <gtest/gtest.h>

using namespace termcheck;

namespace {

void expectExactComplement(const Buchi &A, const Buchi &C, Rng &R,
                           uint32_t NumSymbols, int NumWords,
                           const char *Which) {
  for (int W = 0; W < NumWords; ++W) {
    LassoWord L = randomLasso(R, NumSymbols, 3, 3);
    bool InA = acceptsLasso(A, L);
    bool InC = acceptsLasso(C, L);
    EXPECT_NE(InA, InC) << Which << ": word " << L.str()
                        << (InA ? " accepted by both" : " accepted by neither")
                        << "\n" << A.str();
  }
}

TEST(ComplementProperty, NcsbOriginalOnRandomSdbas) {
  Rng R(1001);
  for (int Iter = 0; Iter < 60; ++Iter) {
    uint32_t Q1 = 1 + static_cast<uint32_t>(R.below(3));
    uint32_t Q2 = 1 + static_cast<uint32_t>(R.below(4));
    uint32_t Symbols = 1 + static_cast<uint32_t>(R.below(2));
    Buchi A = randomSdba(R, Q1, Q2, Symbols);
    auto S = prepareSdba(A);
    ASSERT_TRUE(S.has_value());
    Buchi C = NcsbOracle(*S, NcsbVariant::Original).materialize();
    expectExactComplement(A, C, R, Symbols, 30, "NCSB-Original");
  }
}

TEST(ComplementProperty, NcsbLazyOnRandomSdbas) {
  Rng R(1002);
  for (int Iter = 0; Iter < 60; ++Iter) {
    uint32_t Q1 = 1 + static_cast<uint32_t>(R.below(3));
    uint32_t Q2 = 1 + static_cast<uint32_t>(R.below(4));
    uint32_t Symbols = 1 + static_cast<uint32_t>(R.below(2));
    Buchi A = randomSdba(R, Q1, Q2, Symbols);
    auto S = prepareSdba(A);
    ASSERT_TRUE(S.has_value());
    Buchi C = NcsbOracle(*S, NcsbVariant::Lazy).materialize();
    expectExactComplement(A, C, R, Symbols, 30, "NCSB-Lazy");
  }
}

TEST(ComplementProperty, NcsbOnDeterministicInputs) {
  // DBAs are SDBAs; NCSB must handle them too.
  Rng R(1003);
  for (int Iter = 0; Iter < 40; ++Iter) {
    uint32_t N = 2 + static_cast<uint32_t>(R.below(5));
    Buchi A = randomDba(R, N, 2);
    auto S = prepareSdba(A);
    ASSERT_TRUE(S.has_value());
    Buchi C = NcsbOracle(*S, NcsbVariant::Lazy).materialize();
    expectExactComplement(A, C, R, 2, 25, "NCSB-Lazy on DBA");
  }
}

TEST(ComplementProperty, KurshanOnRandomDbas) {
  Rng R(1004);
  for (int Iter = 0; Iter < 80; ++Iter) {
    uint32_t N = 1 + static_cast<uint32_t>(R.below(6));
    uint32_t Symbols = 1 + static_cast<uint32_t>(R.below(3));
    Buchi A = randomDba(R, N, Symbols);
    DbaComplementOracle O(A);
    Buchi C = O.materialize();
    // Kurshan: at most 2n states.
    EXPECT_LE(C.numStates(), 2u * A.numStates());
    expectExactComplement(A, C, R, Symbols, 25, "Kurshan");
  }
}

TEST(ComplementProperty, RankBasedOnTinyBas) {
  Rng R(1005);
  for (int Iter = 0; Iter < 40; ++Iter) {
    RandomAutomatonSpec Spec;
    Spec.NumStates = 2 + static_cast<uint32_t>(R.below(3)); // 2..4 states
    Spec.NumSymbols = 2;
    Spec.AcceptPercent = 40;
    Buchi A = completeWithSink(randomBa(R, Spec));
    RankComplementOracle O(A);
    Buchi C = O.materialize();
    expectExactComplement(A, C, R, 2, 20, "Rank-based");
  }
}

TEST(ComplementProperty, RankBasedOnNondeterministicClassic) {
  // The classic "eventually always a" language, which no DBA recognizes:
  // guess the point after which only a (symbol 0) occurs.
  Buchi A(2, 1);
  A.addStates(2);
  A.addInitial(0);
  A.addTransition(0, 0, 0);
  A.addTransition(0, 1, 0);
  A.addTransition(0, 0, 1); // guess: from now on only a
  A.setAccepting(1);
  A.addTransition(1, 0, 1);
  Buchi Complete = completeWithSink(A);
  RankComplementOracle O(Complete);
  Buchi C = O.materialize();
  // Complement: infinitely many b (symbol 1).
  EXPECT_TRUE(acceptsLasso(C, {{}, {1}}));
  EXPECT_TRUE(acceptsLasso(C, {{0, 0}, {0, 1}}));
  EXPECT_FALSE(acceptsLasso(C, {{}, {0}}));
  EXPECT_FALSE(acceptsLasso(C, {{1, 1}, {0}}));
}

TEST(ComplementProperty, FiniteTraceComplement) {
  // Pref = {ab, aa} over {a=0, b=1}; module accepts Pref . Sigma^omega.
  Buchi A(2, 1);
  A.addStates(4);
  A.addInitial(0);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 1, 2); // ab
  A.addTransition(1, 0, 2); // aa
  State Universal = 2;
  A.setAccepting(Universal);
  A.addTransition(Universal, 0, Universal);
  A.addTransition(Universal, 1, Universal);
  FiniteTraceComplementOracle O(A, Universal);
  Buchi C = O.materialize();
  EXPECT_FALSE(acceptsLasso(C, {{0, 1}, {0}}));   // ab...
  EXPECT_FALSE(acceptsLasso(C, {{0, 0}, {1}}));   // aa...
  EXPECT_FALSE(acceptsLasso(C, {{}, {0}}));       // aaa... has prefix aa
  EXPECT_FALSE(acceptsLasso(C, {{}, {0, 1}}));    // (ab)^omega has prefix ab
  EXPECT_TRUE(acceptsLasso(C, {{1}, {0}}));       // b a^omega
  EXPECT_TRUE(acceptsLasso(C, {{}, {1}}));        // b^omega
}

TEST(ComplementProperty, FiniteTraceRandomizedXor) {
  Rng R(1006);
  for (int Iter = 0; Iter < 60; ++Iter) {
    // Random prefix DAG of depth <= 4 feeding one universal state.
    uint32_t Depth = 1 + static_cast<uint32_t>(R.below(4));
    Buchi A(2, 1);
    std::vector<State> Layer{A.addState()};
    A.addInitial(Layer[0]);
    State Universal = A.addState();
    A.setAccepting(Universal);
    A.addTransition(Universal, 0, Universal);
    A.addTransition(Universal, 1, Universal);
    for (uint32_t D = 0; D < Depth; ++D) {
      std::vector<State> NextLayer;
      for (State S : Layer) {
        for (Symbol Sym = 0; Sym < 2; ++Sym) {
          if (R.chance(1, 3))
            continue; // missing edge: prefix dies
          if (D + 1 == Depth || R.chance(1, 4)) {
            A.addTransition(S, Sym, Universal);
          } else {
            State T = A.addState();
            A.addTransition(S, Sym, T);
            NextLayer.push_back(T);
          }
        }
      }
      Layer = NextLayer;
      if (Layer.empty())
        break;
    }
    FiniteTraceComplementOracle O(A, Universal);
    Buchi C = O.materialize();
    expectExactComplement(A, C, R, 2, 25, "FiniteTrace");
  }
}

// Differential layer: the two NCSB variants and the rank-based procedure
// implement the same mathematical object, so on any input SDBA their
// outputs must be language-equal. The corpus stays tiny (rank-based
// complementation is doubly exponential; 5 completed states is already its
// practical ceiling here). Per instance the test checks:
//
//  1. Disjointness, exhaustively: each complement's product with the
//     original automaton is empty.
//  2. Mutual differences, exhaustively where decidable: X \ Y is empty via
//     the in-repo inclusion check whenever Y's trimmed materialization is
//     semideterministic (NCSB outputs usually are; rank outputs are not,
//     so the two directions into C_rank fall to check 3).
//  3. Totality, sampled: every random lasso word lands in exactly one of
//     the original and each complement, which catches a word any engine
//     wrongly drops -- including words a too-small C_rank would miss.
//
// A counter guards against check 2 silently skipping everything.
TEST(ComplementProperty, DifferentialAcrossEngines) {
  Rng R(4242);
  int Instances = 0, MutualDiffsDecided = 0;
  for (int Iter = 0; Iter < 200; ++Iter) {
    // Shapes stay under four completed states: the rank complement of a
    // (2,2) SDBA already materializes tens of thousands of states, and the
    // sampled checks against it dominate the whole suite's runtime.
    const std::pair<uint32_t, uint32_t> Shapes[] = {{1, 1}, {1, 2}, {2, 1}};
    auto [Q1, Q2] = Shapes[R.below(3)];
    Buchi A = randomSdba(R, Q1, Q2, 2);
    auto S = prepareSdba(A);
    ASSERT_TRUE(S.has_value()) << "randomSdba must produce an SDBA";
    ++Instances;
    Buchi Lazy = trim(NcsbOracle(*S, NcsbVariant::Lazy).materialize());
    Buchi Orig = trim(NcsbOracle(*S, NcsbVariant::Original).materialize());
    Buchi Rank =
        trim(RankComplementOracle(completeWithSink(A)).materialize());

    const struct {
      const char *Name;
      const Buchi *C;
    } Engines[] = {{"NCSB-Lazy", &Lazy},
                   {"NCSB-Original", &Orig},
                   {"Rank-based", &Rank}};

    // 1. No complement intersects the original language.
    for (const auto &E : Engines)
      EXPECT_TRUE(isEmpty(intersect(*E.C, A)))
          << E.Name << " complement intersects the input\n"
          << A.str();

    // 2. Pairwise mutual differences, where the right side is NCSB-able.
    bool AllDecided = true;
    for (const auto &X : Engines) {
      for (const auto &Y : Engines) {
        if (X.C == Y.C || Y.C == &Rank)
          continue; // the directions into C_rank fall to check 3
        std::optional<bool> Included = isIncludedIn(*X.C, *Y.C);
        if (!Included) {
          AllDecided = false;
          continue;
        }
        EXPECT_TRUE(*Included)
            << X.Name << " \\ " << Y.Name << " is nonempty\n"
            << A.str();
      }
    }
    MutualDiffsDecided += AllDecided ? 1 : 0;

    // 3. Sampled totality: w in A xor w in C, for every engine.
    for (int W = 0; W < 12; ++W) {
      LassoWord L = randomLasso(R, 2, 3, 3);
      bool InA = acceptsLasso(A, L);
      for (const auto &E : Engines)
        EXPECT_NE(InA, acceptsLasso(*E.C, L))
            << E.Name << ": word " << L.str()
            << (InA ? " accepted by both" : " accepted by neither") << "\n"
            << A.str();
    }
  }
  EXPECT_EQ(Instances, 200);
  // Roughly 3/4 of NCSB materializations are semideterministic; if this
  // collapses, the mutual-difference leg stopped testing anything.
  EXPECT_GE(MutualDiffsDecided, Instances / 2);
}

TEST(ComplementProperty, MaterializedComplementsAreBas) {
  Rng R(1007);
  Buchi A = randomSdba(R, 2, 3, 2);
  auto S = prepareSdba(A);
  ASSERT_TRUE(S.has_value());
  Buchi C = NcsbOracle(*S, NcsbVariant::Lazy).materialize();
  EXPECT_EQ(C.numConditions(), 1u);
}

} // namespace
