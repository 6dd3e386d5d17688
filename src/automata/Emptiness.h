//===- automata/Emptiness.h - Pluggable Buchi emptiness engines -*- C++ -*-===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared emptiness-engine interface extracted from the Gaiser-Schwoon
/// path of Scc.h. Every lasso hunt and every certified-module subtraction
/// bottoms out in a GBA emptiness query over an implicit product, so the
/// engine is pluggable:
///
/// * GaiserSchwoonEmptiness -- Algorithm 1 (UselessStateRemover) with
///   StopAtFirstAccepting, the historical path. Subsumption applies only at
///   the frontier, through the IsKnownEmpty antichain hooks.
/// * CouvreurEmptiness (CouvreurEmptiness.h) -- a single-pass iterative
///   Couvreur/Tarjan SCC search that additionally prunes successors
///   simulation-subsumed by a state already ON the DFS stack, the
///   check_simul_less trick of kofola's emptiness_check (Havlena et al.
///   2023); Fogarty-Vardi 2011 report the same subsumption-inside-search
///   move as decisive for Ramsey/rank-based termination tools.
///
/// Both engines answer through EmptinessResult, including an optional
/// certified witness lasso so --witness and the nontermination replay work
/// regardless of which engine decided nonemptiness.
///
//===----------------------------------------------------------------------===//

#ifndef TERMCHECK_AUTOMATA_EMPTINESS_H
#define TERMCHECK_AUTOMATA_EMPTINESS_H

#include "automata/Scc.h"

#include <string_view>

namespace termcheck {

/// Which emptiness engine a difference/analysis runs (the --emptiness CLI
/// axis; AnalyzerOptions::Emptiness).
enum class EmptinessStrategy : uint8_t {
  /// Algorithm 1 with StopAtFirstAccepting (the historical path).
  GaiserSchwoon,
  /// Couvreur/Tarjan with on-stack simulation cutoffs.
  Couvreur,
};

const char *emptinessStrategyName(EmptinessStrategy S);

/// Inverse of emptinessStrategyName. \returns false (leaving \p S
/// untouched) when \p Name is not a stable strategy name.
bool emptinessStrategyFromName(std::string_view Name, EmptinessStrategy &S);

/// Knobs shared by every emptiness engine. All hooks are optional.
struct EmptinessOptions {
  /// Budget hook, polled every PollStride expansions; returning true aborts
  /// (Result.Aborted set, IsEmpty unreliable).
  std::function<bool()> ShouldAbort;
  /// Expansions between ShouldAbort polls (mirrors UselessStateRemover).
  uint32_t PollStride = 256;

  /// Language inclusion: SubsumedBy(Sub, Sup) => L(Sub) subseteq L(Sup).
  /// Consulted by Couvreur's cutoffs; engines must tolerate it being
  /// reflexive and are expected to supply their own syntactic fast path.
  std::function<bool(State, State)> SubsumedBy;
  /// True when SubsumedBy is an EARLY simulation-style preorder: along
  /// subsumed runs the subsuming run covers acceptance no later (PLDI'18
  /// Lemma 6.2; NCSB-Lazy's [=_B qualifies, plain language inclusion does
  /// NOT). The on-stack cutoff is sound only for early relations, so
  /// Couvreur enables it only under this flag; the closed-state cutoff
  /// needs just language inclusion and ignores it.
  bool SubsumptionIsEarly = false;

  /// Closed-state cutoff hooks (the Section 6 antichain): IsKnownEmpty(q)
  /// tests q against states already proved empty-language; AddKnownEmpty
  /// publishes a freshly closed empty state; ResetKnownEmpty discards the
  /// set (Couvreur calls it when a restart invalidates entries added under
  /// a provisional on-stack prune -- callers sharing the antichain beyond
  /// one check() call MUST honor it).
  std::function<bool(State)> IsKnownEmpty;
  std::function<void(State)> AddKnownEmpty;
  std::function<void()> ResetKnownEmpty;

  /// Reconstruct an accepting lasso on nonempty (Result.Witness). Engines
  /// record traversed arcs while searching, so this costs memory
  /// proportional to the explored subgraph.
  bool FindWitness = false;
};

/// Outcome of one emptiness query.
struct EmptinessResult {
  bool IsEmpty = true;
  /// Cut short by ShouldAbort; IsEmpty is then unreliable.
  bool Aborted = false;
  /// Distinct states whose successors were expanded.
  size_t StatesExplored = 0;
  /// SCCs fully closed (popped empty) -- Couvreur only.
  size_t SccsClosed = 0;
  /// Successors pruned against an on-stack state -- Couvreur only.
  size_t OnStackCutoffs = 0;
  /// Successors pruned against a closed (known-empty) state.
  size_t ClosedCutoffs = 0;
  /// Times the search restarted because an SCC merge invalidated a
  /// provisional on-stack prune -- Couvreur only (expected rare).
  size_t CutoffRestarts = 0;
  /// Accepting lasso (present when !IsEmpty and FindWitness was set).
  std::optional<LassoWord> Witness;
};

/// A pluggable emptiness engine over an implicit GBA.
class EmptinessEngine {
public:
  virtual ~EmptinessEngine() = default;
  /// Stable identifier surfaced in run reports ("gaiser_schwoon", ...).
  virtual const char *name() const = 0;
  virtual EmptinessResult check(GbaSource &Src,
                                const EmptinessOptions &Opts) = 0;
};

/// Algorithm 1 with StopAtFirstAccepting, wrapped behind the shared
/// interface. IsKnownEmpty/AddKnownEmpty map onto the remover's
/// useless-set hooks; SubsumedBy/SubsumptionIsEarly are unused (the
/// remover has no in-search cutoff).
class GaiserSchwoonEmptiness : public EmptinessEngine {
public:
  const char *name() const override { return "gaiser_schwoon"; }
  EmptinessResult check(GbaSource &Src, const EmptinessOptions &Opts) override;
};

/// Emptiness of an explicit GBA under strategy \p S. For Couvreur a
/// direct-simulation preorder is computed as the cutoff relation while the
/// automaton is at most SimulationStateCap states (the relation is
/// quadratic); beyond the cap Couvreur still runs, with the closed-state
/// cutoff only. Fields already set in \p Base (hooks, FindWitness, budget)
/// are preserved.
inline constexpr uint32_t SimulationStateCap = 2048;
EmptinessResult checkEmptiness(const Buchi &A, EmptinessStrategy S,
                               EmptinessOptions Base = {});

} // namespace termcheck

#endif // TERMCHECK_AUTOMATA_EMPTINESS_H
