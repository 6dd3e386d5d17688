//===- automata/DfsFrames.h - Shared DFS arc-frame iteration --*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One arc-iteration path for every iterative DFS in the automata layer
/// (sccDecompose and SccSearch), so no search carries its own arc pointer
/// plus cursor or heap-allocates a successor vector per state. Two helpers:
///
/// * ExplicitArcFrame -- a cached span over Buchi::arcsFrom for explicit
///   automata. arcsFrom's row reference is stable while no state is added,
///   which every DFS here guarantees, so the span is cached once at push.
/// * ArcArena -- the GbaSource-side equivalent. Implicit sources append
///   successors into a caller-provided buffer, so frames own slices of one
///   shared arena instead of a vector each; the LIFO discipline of DFS lets
///   a popped frame's slice be reclaimed by a single resize, and the arena
///   reaches steady-state capacity after the first deep path.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_DFSFRAMES_H
#define TERMCHECK_AUTOMATA_DFSFRAMES_H

#include "automata/Buchi.h"

#include <cassert>
#include <vector>

namespace termcheck {

/// DFS frame over an explicit automaton: the state plus a cursor into its
/// (stable) arc row. Frames are POD-sized, so the frame stack never
/// allocates per push once its capacity is warm.
struct ExplicitArcFrame {
  State S;
  const Buchi::Arc *Cur;
  const Buchi::Arc *End;
  /// Symbol on the edge that discovered S (DFS roots leave it 0); carried
  /// for the lasso-reconstructing searches, ignored by the others.
  Symbol InSym;

  ExplicitArcFrame(const Buchi &A, State S, Symbol InSym = 0)
      : S(S), InSym(InSym) {
    const std::vector<Buchi::Arc> &Arcs = A.arcsFrom(S);
    Cur = Arcs.data();
    End = Cur + Arcs.size();
  }

  bool done() const { return Cur == End; }
  /// Precondition: !done(). Advances the cursor.
  const Buchi::Arc &next() { return *Cur++; }
};

/// Shared successor storage for DFS over a GbaSource. Each frame is a slice
/// [Begin, End) of one arena vector with a cursor; pop() truncates the
/// arena back, so the arena's high-water mark is the successor count of the
/// deepest DFS path, not of the whole exploration.
///
/// Arc references returned by next() are invalidated by the next push()
/// (the arena may reallocate); callers copy the arc by value, which is what
/// every DFS loop here does anyway.
class ArcArena {
public:
  struct Frame {
    State S;
    size_t Begin; ///< first arc of the slice (arena index)
    size_t Idx;   ///< cursor (arena index), Begin <= Idx <= End
    size_t End;   ///< one past the last arc of the slice
  };

  /// Appends S's successors to the arena and returns the new frame.
  template <typename Source> Frame push(Source &Src, State S) {
    size_t Begin = Arena.size();
    Src.arcs(S, Arena);
    return {S, Begin, Begin, Arena.size()};
  }

  /// Reclaims the top frame's slice. Frames MUST be popped LIFO.
  void pop(const Frame &F) {
    assert(Arena.size() == F.End && "arena frames must be popped LIFO");
    Arena.resize(F.Begin);
  }

  bool done(const Frame &F) const { return F.Idx == F.End; }
  /// Precondition: !done(F). Advances F's cursor. The reference dies at the
  /// next push(); copy the arc.
  const Buchi::Arc &next(Frame &F) { return Arena[F.Idx++]; }

private:
  std::vector<Buchi::Arc> Arena;
};

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_DFSFRAMES_H
