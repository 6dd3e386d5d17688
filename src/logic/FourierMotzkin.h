//===- logic/FourierMotzkin.h - Linear satisfiability & entailment -*-C++-*-=//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifier elimination, satisfiability and entailment for cubes of linear
/// integer constraints via Fourier-Motzkin elimination with integer
/// tightening. This engine replaces the SMT solver used by the original
/// Ultimate Automizer implementation; in this framework instance every
/// queried formula is a cube over linear integer arithmetic.
///
/// Soundness contract: UNSAT answers are sound over the integers (rational
/// relaxation plus gcd tightening only removes rational-but-not-integer
/// points). SAT answers may overapproximate integer satisfiability; callers
/// rely only on the UNSAT direction (Hoare validity, infeasibility).
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_LOGIC_FOURIERMOTZKIN_H
#define TERMCHECK_LOGIC_FOURIERMOTZKIN_H

#include "logic/Cube.h"

#include <map>
#include <memory>
#include <optional>

namespace termcheck {

/// Fourier-Motzkin based decision procedures for cubes.
namespace fm {

/// Eliminates variable \p V from \p C, preferring exact substitution through
/// an equality atom and falling back to pairwise combination of opposite-sign
/// inequalities. The result is an integer overapproximation of
/// `exists V. C` that is exact over the rationals.
Cube eliminate(const Cube &C, VarId V);

/// Eliminates every variable in \p Vars in sequence.
Cube eliminateAll(Cube C, const std::vector<VarId> &Vars);

/// \returns false only when \p C has no integer solution (sound UNSAT);
/// a true answer means "no contradiction found". While a SatMemoScope is
/// active on the calling thread, repeated queries are answered from it.
bool isSatisfiable(const Cube &C);

struct SatMemo;

/// Installs a memo behind isSatisfiable for the calling thread and restores
/// the previously installed one (usually none) on destruction. The key is
/// the cube's exact atom sequence -- elimination order, and with it an
/// overapproximating SAT answer, depends on atom order -- so a memoized
/// answer is bit-identical to the uncached call. The memo has a fixed
/// footprint (direct-mapped slots plus a flat key arena, cleared when
/// full). TerminationAnalyzer::run opens one scope per run; outside any
/// scope nothing is cached, which keeps the validators independent.
class SatMemoScope {
public:
  /// Upper bound on the memo's heap footprint, slots and arena together.
  static constexpr size_t FootprintBytes = 64 * 1024;

  SatMemoScope();
  ~SatMemoScope();
  SatMemoScope(const SatMemoScope &) = delete;
  SatMemoScope &operator=(const SatMemoScope &) = delete;

  /// Queries answered from this scope's memo.
  uint64_t hits() const;
  /// Queries decided by elimination while this scope was innermost.
  uint64_t misses() const;
  /// Times the key arena filled up and the whole memo was cleared.
  uint64_t clears() const;

  /// \returns true when some scope is active on the calling thread.
  static bool active();

private:
  std::unique_ptr<SatMemo> Memo;
  SatMemo *Prev = nullptr;
};

/// \returns true when \p P entails the single atom \p C over the integers.
bool entails(const Cube &P, const Constraint &C);

/// \returns true when \p P entails every atom of \p Q.
bool entails(const Cube &P, const Cube &Q);

/// \returns the set of variables occurring in \p C, ascending.
std::vector<VarId> variablesOf(const Cube &C);

/// Attempts to construct a concrete integer model of \p C: eliminate the
/// variables one by one, then back-substitute in reverse, picking for each
/// variable an integer from its residual interval (0 when unconstrained,
/// the nearest bound otherwise). The returned assignment is verified
/// against \p C before being handed out, so a model is always genuine;
/// nullopt means no model was found (the cube may be integer-unsat, or the
/// chosen elimination order may have landed in an integer gap of the
/// rational relaxation). Used by the nontermination prover to extract
/// loop fixpoints and recurrent-set seed points.
std::optional<std::map<VarId, int64_t>> sampleIntegerPoint(const Cube &C);

} // namespace fm
} // namespace termcheck

#endif // TERMCHECK_LOGIC_FOURIERMOTZKIN_H
