//===- automata/Emptiness.cpp - Pluggable Buchi emptiness engines --------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Emptiness.h"

#include "automata/CouvreurEmptiness.h"
#include "automata/EmptinessInternal.h"
#include "automata/Simulation.h"

#include <algorithm>

using namespace termcheck;

const char *termcheck::emptinessStrategyName(EmptinessStrategy S) {
  switch (S) {
  case EmptinessStrategy::GaiserSchwoon:
    return "gaiser_schwoon";
  case EmptinessStrategy::Couvreur:
    return "couvreur";
  }
  return "?";
}

bool termcheck::emptinessStrategyFromName(std::string_view Name,
                                          EmptinessStrategy &S) {
  if (Name == "gaiser_schwoon") {
    S = EmptinessStrategy::GaiserSchwoon;
    return true;
  }
  if (Name == "couvreur") {
    S = EmptinessStrategy::Couvreur;
    return true;
  }
  return false;
}

EmptinessResult GaiserSchwoonEmptiness::check(GbaSource &Src,
                                              const EmptinessOptions &Opts) {
  detail::RecordingSource Rec(Src);
  GbaSource &S = Opts.FindWitness ? static_cast<GbaSource &>(Rec) : Src;

  UselessStateRemover R;
  R.StopAtFirstAccepting = true;
  R.ShouldAbort = Opts.ShouldAbort;
  R.PollStride = Opts.PollStride;
  R.IsKnownUseless = Opts.IsKnownEmpty;
  R.AddUseless = Opts.AddKnownEmpty;
  RemoveUselessResult RR = R.run(S);

  EmptinessResult Out;
  Out.IsEmpty = RR.LanguageEmpty;
  Out.Aborted = RR.Aborted;
  Out.StatesExplored = RR.StatesExplored;
  if (!Out.IsEmpty && !Out.Aborted && Opts.FindWitness)
    Out.Witness = Rec.buildWitness();
  return Out;
}

EmptinessResult termcheck::checkEmptiness(const Buchi &A, EmptinessStrategy S,
                                          EmptinessOptions Base) {
  ExplicitGbaSource Src(A);
  if (S == EmptinessStrategy::GaiserSchwoon) {
    GaiserSchwoonEmptiness E;
    return E.check(Src, Base);
  }

  // Couvreur. An explicit query is always emptiness-only, which is exactly
  // where the early cutoffs pay off.
  std::optional<SimulationRelation> Sim;
  if (!Base.SubsumedBy && A.numStates() <= SimulationStateCap) {
    Sim = computeDirectSimulation(A, Base.ShouldAbort);
    if (Sim->Aborted) {
      Sim.reset();
    } else {
      Base.SubsumedBy = [SimPtr = &*Sim](State Sub, State Sup) {
        return SimPtr->simulates(Sub, Sup);
      };
      // Direct simulation preserves acceptance at every step, so it is an
      // early relation (Proposition 6.1: direct subset-of early).
      Base.SubsumptionIsEarly = true;
    }
  }

  // A small closed-state antichain under the same preorder (only built
  // when nobody supplied their own hooks alongside a relation).
  std::vector<State> Chain;
  constexpr size_t ChainCap = 256;
  if (Base.SubsumedBy && !Base.IsKnownEmpty && !Base.AddKnownEmpty) {
    const auto &Sub = Base.SubsumedBy;
    Base.IsKnownEmpty = [&Chain, &Sub](State Q) {
      return std::any_of(Chain.begin(), Chain.end(),
                         [&](State R) { return Sub(Q, R); });
    };
    Base.AddKnownEmpty = [&Chain, &Sub](State Q) {
      for (State R : Chain)
        if (Sub(Q, R))
          return;
      Chain.erase(std::remove_if(Chain.begin(), Chain.end(),
                                 [&](State R) { return Sub(R, Q); }),
                  Chain.end());
      if (Chain.size() < ChainCap)
        Chain.push_back(Q);
    };
    Base.ResetKnownEmpty = [&Chain] { Chain.clear(); };
  }

  CouvreurEmptiness E;
  return E.check(Src, Base);
}
