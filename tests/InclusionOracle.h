//===- tests/InclusionOracle.h - Language inclusion for tests -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Language inclusion L(A) subseteq L(B) for a semideterministic (or
/// deterministic) B, decided through the paper's machinery: complement B
/// with NCSB (or Kurshan) and ask difference() whether L(A) \ L(B) is
/// empty. The analyzer never asks this question; tests use it as an
/// oracle for the complement constructions.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_TESTS_INCLUSIONORACLE_H
#define TERMCHECK_TESTS_INCLUSIONORACLE_H

#include "automata/DbaComplement.h"
#include "automata/Difference.h"
#include "automata/Ncsb.h"
#include "automata/Ops.h"
#include "automata/Sdba.h"

#include <optional>

namespace termcheck {

/// \returns std::nullopt when B is not semideterministic.
inline std::optional<bool> isIncludedIn(const Buchi &A, const Buchi &B) {
  Buchi Complete = completeWithSink(B);
  if (Complete.isDeterministic()) {
    DbaComplementOracle O(Complete);
    return difference(A, O).IsEmpty;
  }
  std::optional<Sdba> Prepared = prepareSdba(Complete);
  if (!Prepared)
    return std::nullopt;
  NcsbOracle O(*Prepared, NcsbVariant::Lazy);
  return difference(A, O).IsEmpty;
}

} // namespace termcheck

#endif // TERMCHECK_TESTS_INCLUSIONORACLE_H
