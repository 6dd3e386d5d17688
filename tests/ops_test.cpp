//===- tests/ops_test.cpp - Inclusion, DOT export -------------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "InclusionOracle.h"

#include "automata/Dot.h"
#include "automata/Ops.h"
#include "benchgen/RandomAutomata.h"

#include <gtest/gtest.h>

using namespace termcheck;

namespace {

/// BA accepting exactly sym^omega for one symbol over a 2-letter alphabet.
Buchi onlySymbolForever(Symbol Sym) {
  Buchi A(2, 1);
  State S = A.addState();
  A.addInitial(S);
  A.setAccepting(S);
  A.addTransition(S, Sym, S);
  return A;
}

TEST(Inclusion, BasicCases) {
  Buchi OnlyA = onlySymbolForever(0);
  // All words automaton.
  Buchi All(2, 1);
  State S = All.addState();
  All.addInitial(S);
  All.setAccepting(S);
  All.addTransition(S, 0, S);
  All.addTransition(S, 1, S);

  auto R1 = isIncludedIn(OnlyA, All);
  ASSERT_TRUE(R1.has_value());
  EXPECT_TRUE(*R1);
  auto R2 = isIncludedIn(All, OnlyA);
  ASSERT_TRUE(R2.has_value());
  EXPECT_FALSE(*R2);
}

TEST(Inclusion, SelfInclusionOnRandomSdbas) {
  Rng R(707);
  for (int Iter = 0; Iter < 20; ++Iter) {
    Buchi A = randomSdba(R, 2, 3, 2);
    auto Res = isIncludedIn(A, A);
    ASSERT_TRUE(Res.has_value());
    EXPECT_TRUE(*Res);
  }
}

TEST(Inclusion, ReturnsNulloptForNonSdbaRhs) {
  // "Eventually always a" is not semideterministic in this presentation?
  // Build a BA whose accepting component is genuinely nondeterministic.
  Buchi B(1, 1);
  B.addStates(3);
  B.addInitial(0);
  B.setAccepting(0);
  B.addTransition(0, 0, 1);
  B.addTransition(0, 0, 2); // accepting state branches
  B.addTransition(1, 0, 0);
  B.addTransition(2, 0, 0);
  Buchi A = B;
  EXPECT_FALSE(isIncludedIn(A, B).has_value());
}

TEST(Inclusion, SelfInclusionOnRandomDbas) {
  // Deterministic right-hand sides take the DBA-complement path.
  Rng R(808);
  for (int Iter = 0; Iter < 20; ++Iter) {
    Buchi A = randomDba(R, 4, 2);
    auto Res = isIncludedIn(A, A);
    ASSERT_TRUE(Res.has_value());
    EXPECT_TRUE(*Res);
  }
}

TEST(Dot, RendersStatesEdgesAndAcceptance) {
  Buchi A(2, 1);
  A.addStates(2);
  A.addInitial(0);
  A.setAccepting(1);
  A.addTransition(0, 0, 1);
  A.addTransition(1, 1, 0);
  std::string S = toDot(A);
  EXPECT_NE(S.find("digraph \"buchi\""), std::string::npos);
  EXPECT_NE(S.find("q0 -> q1 [label=\"0\"]"), std::string::npos);
  EXPECT_NE(S.find("doublecircle"), std::string::npos);
  EXPECT_NE(S.find("init0 -> q0"), std::string::npos);
}

TEST(Dot, UsesSymbolNameCallbackAndEscapes) {
  Buchi A(1, 1);
  State S = A.addState();
  A.addInitial(S);
  A.addTransition(S, 0, S);
  std::string Out =
      toDot(A, [](Symbol) { return std::string("x := \"1\""); }, "g");
  EXPECT_NE(Out.find("digraph \"g\""), std::string::npos);
  EXPECT_NE(Out.find("\\\"1\\\""), std::string::npos);
}

TEST(Dot, GeneralizedAcceptanceBitsShown) {
  Buchi A(1, 2);
  State S = A.addState();
  A.addInitial(S);
  A.setAccepting(S, 0);
  A.setAccepting(S, 1);
  A.addTransition(S, 0, S);
  std::string Out = toDot(A);
  EXPECT_NE(Out.find("{0,1}"), std::string::npos);
}

} // namespace
