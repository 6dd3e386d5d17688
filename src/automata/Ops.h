//===- automata/Ops.h - Basic automata operations -------------*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction-level operations on explicit GBAs: completion with a
/// rejecting sink (Section 2 assumes complete automata), restriction to a
/// state subset (used to materialize the useful part computed by
/// Algorithm 1), and the generalized product (intersection), which stacks
/// the acceptance conditions of both operands as the paper's Section 4
/// footnote prescribes.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_OPS_H
#define TERMCHECK_AUTOMATA_OPS_H

#include "automata/Buchi.h"

namespace termcheck {

/// Adds a non-accepting sink state (with self-loops on every symbol) and
/// redirects every missing (state, symbol) pair to it. No-op on complete
/// automata. \returns the completed automaton.
Buchi completeWithSink(const Buchi &A);

/// \returns A restricted to \p Keep (states renumbered densely; initial
/// states and transitions outside the subset are dropped).
Buchi restrictToStates(const Buchi &A, const StateSet &Keep);

/// \returns A restricted to its reachable states.
Buchi trim(const Buchi &A);

/// Generalized product: L = L(A) and L(B), with numConditions(A) +
/// numConditions(B) acceptance conditions. Only reachable product states
/// are materialized.
Buchi intersect(const Buchi &A, const Buchi &B);

/// Drops acceptance conditions that hold in every state (they constrain
/// nothing). The program automaton A_P is all-accepting, so the repeated
/// differences of the analysis loop would otherwise accumulate one trivial
/// condition per certified module. At least one condition is kept.
Buchi dropFullConditions(const Buchi &A);

/// Degeneralization: converts a k-condition GBA into an equivalent plain BA
/// with at most (k + 1) * |Q| states (counter construction).
Buchi degeneralize(const Buchi &A);

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_OPS_H
