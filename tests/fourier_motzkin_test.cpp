//===- tests/fourier_motzkin_test.cpp - FM engine tests -------------------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "logic/FourierMotzkin.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

using namespace termcheck;

namespace {

class FmTest : public ::testing::Test {
protected:
  VarTable Vars;
  VarId I = Vars.intern("i");
  VarId J = Vars.intern("j");
  VarId K = Vars.intern("k");

  LinearExpr i() { return LinearExpr::variable(I); }
  LinearExpr j() { return LinearExpr::variable(J); }
  LinearExpr k() { return LinearExpr::variable(K); }
  LinearExpr c(int64_t V) { return LinearExpr::constant(V); }
};

TEST_F(FmTest, EmptyCubeIsSat) { EXPECT_TRUE(fm::isSatisfiable(Cube())); }

TEST_F(FmTest, ContradictionIsUnsat) {
  EXPECT_FALSE(fm::isSatisfiable(Cube::contradiction()));
}

TEST_F(FmTest, SimpleBoundsSat) {
  Cube C;
  C.add(Constraint::ge(i(), c(0)));
  C.add(Constraint::le(i(), c(10)));
  EXPECT_TRUE(fm::isSatisfiable(C));
}

TEST_F(FmTest, ConflictingBoundsUnsat) {
  Cube C;
  C.add(Constraint::ge(i(), c(5)));
  C.add(Constraint::le(i(), c(4)));
  EXPECT_FALSE(fm::isSatisfiable(C));
}

TEST_F(FmTest, TransitiveConflictUnsat) {
  // i <= j, j <= k, k <= i - 1 has no solution.
  Cube C;
  C.add(Constraint::le(i(), j()));
  C.add(Constraint::le(j(), k()));
  C.add(Constraint::le(k(), i() - c(1)));
  EXPECT_FALSE(fm::isSatisfiable(C));
}

TEST_F(FmTest, TransitiveChainSat) {
  Cube C;
  C.add(Constraint::le(i(), j()));
  C.add(Constraint::le(j(), k()));
  C.add(Constraint::le(k(), i()));
  EXPECT_TRUE(fm::isSatisfiable(C)); // i = j = k
}

TEST_F(FmTest, EqualitySubstitutionUnsat) {
  // j == 1, j >= i, i >= 2 is unsatisfiable.
  Cube C;
  C.add(Constraint::eq(j(), c(1)));
  C.add(Constraint::ge(j(), i()));
  C.add(Constraint::ge(i(), c(2)));
  EXPECT_FALSE(fm::isSatisfiable(C));
}

TEST_F(FmTest, IntegerTighteningDetectsParityConflict) {
  // 2i == 2j + 1 has no integer solution.
  Cube C;
  C.add(Constraint::eq(i().scaledBy(2), j().scaledBy(2) + c(1)));
  EXPECT_FALSE(fm::isSatisfiable(C));
}

TEST_F(FmTest, EliminateRemovesVariable) {
  // exists j. (i <= j /\ j <= 5) gives i <= 5.
  Cube C;
  C.add(Constraint::le(i(), j()));
  C.add(Constraint::le(j(), c(5)));
  Cube E = fm::eliminate(C, J);
  EXPECT_FALSE(E.mentions(J));
  Cube Expect;
  Expect.add(Constraint::le(i(), c(5)));
  EXPECT_EQ(E, Expect);
}

TEST_F(FmTest, EliminateUnmentionedVariableIsNoop) {
  Cube C;
  C.add(Constraint::le(i(), c(5)));
  EXPECT_EQ(fm::eliminate(C, J), C);
}

TEST_F(FmTest, EliminateViaEqualityIsExact) {
  // exists j. (j == i + 1 /\ j <= 5) gives i <= 4.
  Cube C;
  C.add(Constraint::eq(j(), i() + c(1)));
  C.add(Constraint::le(j(), c(5)));
  Cube E = fm::eliminate(C, J);
  EXPECT_FALSE(E.mentions(J));
  Cube Expect;
  Expect.add(Constraint::le(i(), c(4)));
  EXPECT_EQ(E, Expect);
}

TEST_F(FmTest, EliminateAll) {
  Cube C;
  C.add(Constraint::le(i(), j()));
  C.add(Constraint::le(j(), k()));
  Cube E = fm::eliminateAll(C, {I, J, K});
  EXPECT_TRUE(E.isTrue());
}

TEST_F(FmTest, EntailsBasicWeakening) {
  Cube P;
  P.add(Constraint::ge(i(), c(5)));
  EXPECT_TRUE(fm::entails(P, Constraint::ge(i(), c(3))));
  EXPECT_FALSE(fm::entails(P, Constraint::ge(i(), c(6))));
}

TEST_F(FmTest, EntailsCombinesAtoms) {
  // i >= 1 /\ j >= i entails j >= 1.
  Cube P;
  P.add(Constraint::ge(i(), c(1)));
  P.add(Constraint::ge(j(), i()));
  EXPECT_TRUE(fm::entails(P, Constraint::ge(j(), c(1))));
}

TEST_F(FmTest, EntailsEqualityNeedsBothSides) {
  Cube P;
  P.add(Constraint::ge(i(), c(5)));
  P.add(Constraint::le(i(), c(5)));
  EXPECT_TRUE(fm::entails(P, Constraint::eq(i(), c(5))));
  Cube Q;
  Q.add(Constraint::ge(i(), c(5)));
  EXPECT_FALSE(fm::entails(Q, Constraint::eq(i(), c(5))));
}

TEST_F(FmTest, ContradictionEntailsEverything) {
  EXPECT_TRUE(fm::entails(Cube::contradiction(), Constraint::eq(i(), c(5))));
}

TEST_F(FmTest, EntailsCube) {
  Cube P;
  P.add(Constraint::eq(i(), c(2)));
  Cube Q;
  Q.add(Constraint::ge(i(), c(0)));
  Q.add(Constraint::le(i(), c(3)));
  EXPECT_TRUE(fm::entails(P, Q));
  EXPECT_FALSE(fm::entails(Q, P));
}

TEST_F(FmTest, VariablesOf) {
  Cube C;
  C.add(Constraint::le(i(), k()));
  std::vector<VarId> V = fm::variablesOf(C);
  EXPECT_EQ(V, (std::vector<VarId>{I, K}));
}

TEST_F(FmTest, PaperExampleStemPostcondition) {
  // After the Psort stem "i > 0; j := 1" the state satisfies i - j >= 0.
  Cube C;
  C.add(Constraint::gt(i(), c(0)));
  C.add(Constraint::eq(j(), c(1)));
  EXPECT_TRUE(fm::entails(C, Constraint::ge(i() - j(), c(0))));
}

// Property: on random cubes with a known integer witness, isSatisfiable
// never answers UNSAT (soundness of the UNSAT direction).
TEST_F(FmTest, PropertyNeverRefutesWitnessedCube) {
  Rng R(1234);
  for (int Iter = 0; Iter < 200; ++Iter) {
    // Pick a random witness point.
    int64_t Wi = R.range(-10, 10), Wj = R.range(-10, 10), Wk = R.range(-10, 10);
    auto ValueOf = [&](VarId V) -> int64_t {
      if (V == I)
        return Wi;
      if (V == J)
        return Wj;
      return Wk;
    };
    // Generate constraints satisfied by the witness.
    Cube C;
    for (int N = 0; N < 6; ++N) {
      LinearExpr E = LinearExpr::scaled(I, R.range(-3, 3)) +
                     LinearExpr::scaled(J, R.range(-3, 3)) +
                     LinearExpr::scaled(K, R.range(-3, 3));
      int64_t V = E.evaluate(ValueOf);
      if (R.chance(1, 4))
        C.add(Constraint::eq(E, LinearExpr::constant(V)));
      else
        C.add(Constraint::le(E, LinearExpr::constant(V + R.range(0, 5))));
    }
    EXPECT_TRUE(C.holds(ValueOf));
    EXPECT_TRUE(fm::isSatisfiable(C)) << "refuted a satisfiable cube";
  }
}

// Property: elimination preserves every integer solution (projection is an
// overapproximation).
TEST_F(FmTest, PropertyEliminationKeepsSolutions) {
  Rng R(77);
  for (int Iter = 0; Iter < 200; ++Iter) {
    int64_t Wi = R.range(-5, 5), Wj = R.range(-5, 5);
    auto ValueOf = [&](VarId V) -> int64_t { return V == I ? Wi : Wj; };
    Cube C;
    for (int N = 0; N < 5; ++N) {
      LinearExpr E = LinearExpr::scaled(I, R.range(-2, 2)) +
                     LinearExpr::scaled(J, R.range(-2, 2));
      C.add(Constraint::le(E, LinearExpr::constant(E.evaluate(ValueOf))));
    }
    Cube E = fm::eliminate(C, J);
    EXPECT_FALSE(E.mentions(J));
    EXPECT_TRUE(E.holds(ValueOf)) << "projection lost a solution";
  }
}

TEST_F(FmTest, SampleIntegerPointSatisfiesCube) {
  Cube C;
  C.add(Constraint::ge(i(), c(3)));
  C.add(Constraint::le(i() + j(), c(10)));
  C.add(Constraint::eq(k(), i() + c(1)));
  auto Pt = fm::sampleIntegerPoint(C);
  ASSERT_TRUE(Pt.has_value());
  auto ValueOf = [&](VarId V) -> int64_t {
    auto It = Pt->find(V);
    return It == Pt->end() ? 0 : It->second;
  };
  EXPECT_TRUE(C.holds(ValueOf));
}

TEST_F(FmTest, SampleIntegerPointRefusesUnsat) {
  Cube C;
  C.add(Constraint::ge(i(), c(5)));
  C.add(Constraint::le(i(), c(4)));
  EXPECT_FALSE(fm::sampleIntegerPoint(C).has_value());
}

TEST_F(FmTest, SampleIntegerPointEmptyCube) {
  auto Pt = fm::sampleIntegerPoint(Cube());
  ASSERT_TRUE(Pt.has_value());
  EXPECT_TRUE(Pt->empty());
}

// Property: every sampled point satisfies its cube; satisfiable cubes with
// a known integer witness are never refused due to an integrality gap the
// witness disproves... the sampler may return a *different* point, but it
// must return one.
TEST_F(FmTest, PropertySampleIntegerPointSound) {
  Rng R(4242);
  for (int Iter = 0; Iter < 300; ++Iter) {
    int64_t Wi = R.range(-6, 6), Wj = R.range(-6, 6), Wk = R.range(-6, 6);
    auto WitnessOf = [&](VarId V) -> int64_t {
      if (V == I)
        return Wi;
      if (V == J)
        return Wj;
      return Wk;
    };
    Cube C;
    for (int N = 0; N < 5; ++N) {
      LinearExpr E = LinearExpr::scaled(I, R.range(-3, 3)) +
                     LinearExpr::scaled(J, R.range(-3, 3)) +
                     LinearExpr::scaled(K, R.range(-3, 3));
      int64_t V = E.evaluate(WitnessOf);
      if (R.chance(1, 5))
        C.add(Constraint::eq(E, LinearExpr::constant(V)));
      else
        C.add(Constraint::le(E, LinearExpr::constant(V + R.range(0, 4))));
    }
    auto Pt = fm::sampleIntegerPoint(C);
    if (!Pt.has_value())
      continue; // rational-only chains may defeat the sampler; soundness
                // is about returned points, checked below
    auto ValueOf = [&](VarId V) -> int64_t {
      auto It = Pt->find(V);
      return It == Pt->end() ? 0 : It->second;
    };
    EXPECT_TRUE(C.holds(ValueOf)) << "sampled point violates its cube";
  }
}

//===----------------------------------------------------------------------===//
// Per-run satisfiability memo
//===----------------------------------------------------------------------===//

/// The variable part of a random cube: per atom, small coefficients over
/// \p Vs and a relation.
std::vector<std::pair<LinearExpr, RelKind>>
randomShape(Rng &R, const std::vector<VarId> &Vs, int MaxAtoms) {
  std::vector<std::pair<LinearExpr, RelKind>> Shape;
  int N = 1 + static_cast<int>(R.below(static_cast<uint64_t>(MaxAtoms)));
  for (int A = 0; A < N; ++A) {
    LinearExpr E;
    for (VarId V : Vs)
      E = E + LinearExpr::scaled(V, R.range(-3, 3));
    Shape.emplace_back(E, R.chance(1, 5) ? RelKind::EQ : RelKind::LE);
  }
  return Shape;
}

/// \p Shape with small random constants, so both SAT and UNSAT answers are
/// common.
std::vector<Constraint>
instantiate(Rng &R, const std::vector<std::pair<LinearExpr, RelKind>> &Shape) {
  std::vector<Constraint> Atoms;
  for (const auto &[E, Rel] : Shape)
    Atoms.push_back(
        Constraint::make(E + LinearExpr::constant(R.range(-6, 6)), Rel));
  return Atoms;
}

Cube cubeOf(const std::vector<Constraint> &Atoms) {
  Cube C;
  for (const Constraint &A : Atoms)
    C.add(A);
  return C;
}

/// Seeded queries. Each random shape is instantiated twice, so the pool
/// holds twins that differ only in their constants, and every cube is
/// also added in a permuted atom order. Then \p Draws more are drawn from
/// that pool with repeats. Cubes that Cube::add already folded to the
/// syntactic contradiction never reach the memo, so they are left out.
std::vector<Cube> memoQueries(uint64_t Seed, const std::vector<VarId> &Vs,
                              size_t Shapes, int MaxAtoms, size_t Draws) {
  Rng R(Seed);
  std::vector<Cube> Pool;
  for (size_t I = 0; I < Shapes; ++I) {
    auto Shape = randomShape(R, Vs, MaxAtoms);
    for (int Twin = 0; Twin < 2; ++Twin) {
      std::vector<Constraint> Atoms = instantiate(R, Shape);
      Cube InOrder = cubeOf(Atoms);
      if (InOrder.isContradictory())
        continue;
      for (size_t A = Atoms.size(); A > 1; --A)
        std::swap(Atoms[A - 1], Atoms[R.below(A)]);
      Pool.push_back(std::move(InOrder));
      Pool.push_back(cubeOf(Atoms));
    }
  }
  std::vector<Cube> Queries = Pool;
  for (size_t I = 0; I < Draws; ++I)
    Queries.push_back(Pool[R.below(Pool.size())]);
  return Queries;
}

std::vector<bool> answersOf(const std::vector<Cube> &Queries) {
  std::vector<bool> Out;
  for (const Cube &C : Queries)
    Out.push_back(fm::isSatisfiable(C));
  return Out;
}

TEST_F(FmTest, MemoAgreesWithUncachedAnswersOnSeededCubes) {
  // 75 shapes, two twins each, in two atom orders each fit the memo without
  // a clear; two variables make UNSAT answers common.
  std::vector<Cube> Queries = memoQueries(0x5A7E, {I, J}, 75, 5, 1800);
  ASSERT_GE(Queries.size(), 2000u);
  ASSERT_FALSE(fm::SatMemoScope::active());
  std::vector<bool> Want = answersOf(Queries);
  auto Unsat = static_cast<size_t>(std::count(Want.begin(), Want.end(), false));
  EXPECT_GT(Unsat, Queries.size() / 10) << "corpus lacks UNSAT cubes";
  EXPECT_LT(Unsat, Queries.size() * 9 / 10) << "corpus lacks SAT cubes";

  fm::SatMemoScope Memo;
  EXPECT_TRUE(fm::SatMemoScope::active());
  EXPECT_EQ(answersOf(Queries), Want);
  EXPECT_EQ(Memo.hits() + Memo.misses(), Queries.size());
  EXPECT_GE(Memo.hits(), Queries.size() / 2) << "repeats were not memoized";
  EXPECT_EQ(Memo.clears(), 0u);
}

TEST_F(FmTest, MemoKeysDistinguishCoefficientsBeyond32Bits) {
  // (2^32 + 1) * i and 1 * i agree in their low 32 bits; a key that packed
  // the coefficient narrowly would hand one cube the other's answer.
  auto Query = [&](int64_t Coeff) {
    Cube C;
    C.add(Constraint::le(LinearExpr::scaled(I, Coeff), j())); // c*i <= j
    C.add(Constraint::ge(i(), c(1)));
    C.add(Constraint::le(j(), c(5)));
    return C;
  };
  Cube Narrow = Query(1), Wide = Query((int64_t(1) << 32) + 1);
  ASSERT_TRUE(fm::isSatisfiable(Narrow));
  ASSERT_FALSE(fm::isSatisfiable(Wide));
  fm::SatMemoScope Memo;
  for (int Round = 0; Round < 2; ++Round) {
    EXPECT_TRUE(fm::isSatisfiable(Narrow));
    EXPECT_FALSE(fm::isSatisfiable(Wide));
  }
  EXPECT_EQ(Memo.misses(), 2u);
  EXPECT_EQ(Memo.hits(), 2u);
}

TEST_F(FmTest, MemoAnswersSurviveOverflowAndClear) {
  // Four variables and up to 8 atoms make long keys; 800 distinct cubes
  // overflow the fixed arena several times over.
  std::vector<VarId> Vs{I, J, K, Vars.intern("l")};
  std::vector<Cube> Queries = memoQueries(0xC1EA, Vs, 200, 8, 800);
  std::vector<bool> Want = answersOf(Queries);
  fm::SatMemoScope Memo;
  EXPECT_EQ(answersOf(Queries), Want);
  EXPECT_GT(Memo.clears(), 1u) << "the corpus no longer overflows the memo";
  EXPECT_GT(Memo.hits(), 0u);
  // And again, now starting from whatever the last clear left behind.
  EXPECT_EQ(answersOf(Queries), Want);
}

TEST_F(FmTest, NestedMemoScopesRestoreTheOuterMemo) {
  Cube C;
  C.add(Constraint::le(i(), j()));
  C.add(Constraint::le(j(), i() - c(1)));
  EXPECT_FALSE(fm::SatMemoScope::active());
  {
    fm::SatMemoScope Outer;
    EXPECT_FALSE(fm::isSatisfiable(C));
    EXPECT_EQ(Outer.misses(), 1u);
    {
      fm::SatMemoScope Inner;
      // The inner memo starts empty and takes the query in place of Outer.
      EXPECT_FALSE(fm::isSatisfiable(C));
      EXPECT_FALSE(fm::isSatisfiable(C));
      EXPECT_EQ(Inner.misses(), 1u);
      EXPECT_EQ(Inner.hits(), 1u);
      EXPECT_EQ(Outer.misses(), 1u);
      EXPECT_EQ(Outer.hits(), 0u);
    }
    EXPECT_TRUE(fm::SatMemoScope::active());
    EXPECT_FALSE(fm::isSatisfiable(C));
    EXPECT_EQ(Outer.hits(), 1u) << "the outer memo was not restored";
  }
  EXPECT_FALSE(fm::SatMemoScope::active());
}

TEST_F(FmTest, ThreadsGetIndependentMemoScopes) {
  std::vector<Cube> Queries = memoQueries(0x7EAD, {I, J, K}, 150, 6, 600);
  std::vector<bool> Want = answersOf(Queries);
  uint64_t WantHits, WantMisses;
  {
    fm::SatMemoScope Memo;
    answersOf(Queries);
    WantHits = Memo.hits();
    WantMisses = Memo.misses();
  }
  // Two threads with scopes of their own and one without run the same
  // queries at once; each scoped thread counts exactly what a lone run
  // counts, so no query reached another thread's memo.
  struct Outcome {
    std::vector<bool> Answers;
    uint64_t Hits = 0, Misses = 0;
    bool Active = false;
  };
  Outcome Scoped[2], Unscoped;
  fm::SatMemoScope MainScope;
  std::thread A([&] {
    fm::SatMemoScope Memo;
    Scoped[0].Answers = answersOf(Queries);
    Scoped[0].Hits = Memo.hits();
    Scoped[0].Misses = Memo.misses();
  });
  std::thread B([&] {
    fm::SatMemoScope Memo;
    Scoped[1].Answers = answersOf(Queries);
    Scoped[1].Hits = Memo.hits();
    Scoped[1].Misses = Memo.misses();
  });
  std::thread C([&] {
    Unscoped.Active = fm::SatMemoScope::active();
    Unscoped.Answers = answersOf(Queries);
  });
  A.join();
  B.join();
  C.join();
  for (const Outcome &O : Scoped) {
    EXPECT_EQ(O.Answers, Want);
    EXPECT_EQ(O.Hits, WantHits);
    EXPECT_EQ(O.Misses, WantMisses);
  }
  EXPECT_FALSE(Unscoped.Active) << "a scope leaked into another thread";
  EXPECT_EQ(Unscoped.Answers, Want);
  EXPECT_EQ(MainScope.hits() + MainScope.misses(), 0u);
}

} // namespace
