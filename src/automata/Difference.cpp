//===- automata/Difference.cpp - On-the-fly GBA \ BA difference ----------===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "automata/Difference.h"

#include "automata/Interner.h"
#include "automata/PerfCounters.h"
#include "support/FaultInjector.h"
#include "support/Trace.h"

#include <cassert>

using namespace termcheck;

namespace {

/// The on-the-fly product A x B-bar as a GbaSource. Product states are
/// interned (aState, cState) pairs; arcs are memoized because Algorithm 1
/// asks for them once per expansion and the materialization step asks
/// again. Both the pair index and the arc memo are flat, state-indexed
/// structures: product ids are dense, so a hash map per lookup is pure
/// overhead on this hot path.
class ProductSource : public GbaSource {
public:
  ProductSource(const Buchi &A, ComplementOracle &BC) : A(A), BC(BC) {
    A.ensureIndex(); // arcsFrom below wants the deduped arc lists
  }

  uint64_t fullMask() const override {
    return (A.fullMask() << 1) | 1; // bit 0: complement acceptance
  }

  std::vector<State> initialStates() override {
    std::vector<State> Out;
    for (State P : A.initials().elems())
      for (State Q : BC.initialStates())
        Out.push_back(intern(P, Q));
    return Out;
  }

  uint64_t acceptMask(State S) override {
    auto [P, Q] = Pairs.get(S);
    return (A.acceptMask(P) << 1) | (BC.isAccepting(Q) ? 1 : 0);
  }

  void arcs(State S, std::vector<Buchi::Arc> &Out) override {
    if (EmptinessStepFaults)
      FaultInjector::hit(FaultSite::EmptinessStep);
    if (S < ArcCached.size() && ArcCached[S]) {
      const std::vector<Buchi::Arc> &Hit = ArcCache[S];
      Out.insert(Out.end(), Hit.begin(), Hit.end());
      return;
    }
    FaultInjector::hit(FaultSite::DifferenceExpand);
    std::vector<Buchi::Arc> Arcs;
    auto [P, Q] = Pairs.get(S);
    for (const Buchi::Arc &ArcA : A.arcsFrom(P)) {
      SuccBuf.clear();
      BC.successors(Q, ArcA.Sym, SuccBuf);
      for (State CTo : SuccBuf)
        Arcs.push_back({ArcA.Sym, intern(ArcA.To, CTo)});
    }
    Out.insert(Out.end(), Arcs.begin(), Arcs.end());
    // intern() above may have discovered fresh states; size the memo after.
    if (ArcCache.size() < Pairs.size()) {
      ArcCache.resize(Pairs.size());
      ArcCached.resize(Pairs.size(), false);
    }
    MemoizedArcs += Arcs.size();
    perf::local().ArcsMemoized += Arcs.size();
    ArcCache[S] = std::move(Arcs);
    ArcCached[S] = true;
  }

  /// Decodes a product id.
  std::pair<State, State> decode(State S) const { return Pairs.get(S); }

  size_t numProductStates() const { return Pairs.size(); }
  size_t numArcsMemoized() const { return MemoizedArcs; }

  /// While set, every expansion is a FaultSite::EmptinessStep (the
  /// Couvreur pass only).
  bool EmptinessStepFaults = false;

private:
  const Buchi &A;
  ComplementOracle &BC;
  PairInterner Pairs;
  std::vector<std::vector<Buchi::Arc>> ArcCache;
  std::vector<bool> ArcCached;
  std::vector<State> SuccBuf; // scratch for one oracle successor query
  size_t MemoizedArcs = 0;

  State intern(State P, State Q) { return Pairs.intern(P, Q).first; }
};

/// emp as a per-A-state antichain of complement macro-states, compared
/// with the oracle's subsumption relation (Section 6, Eq. 10). A states are
/// dense, so the per-state chains live in a flat vector.
class EmpAntichain {
public:
  EmpAntichain(const ProductSource &Src, const ComplementOracle &BC)
      : Src(Src), BC(BC) {}

  /// Makes this antichain \p Search's emp set.
  void attach(SccSearch &Search, size_t NumAStates) {
    Chains.resize(NumAStates);
    Search.IsKnownUseless = [this](State S) { return contains(S); };
    Search.AddUseless = [this](State S) { add(S); };
    Search.ResetUseless = [this] {
      for (std::vector<State> &Chain : Chains)
        Chain.clear();
    };
  }

private:
  const ProductSource &Src;
  const ComplementOracle &BC;
  std::vector<std::vector<State>> Chains;

  bool contains(State S) const {
    auto [P, Q] = Src.decode(S);
    for (State R : Chains[P])
      if (BC.subsumedBy(Q, R))
        return true;
    return false;
  }

  void add(State S) {
    auto [P, Q] = Src.decode(S);
    std::vector<State> &Chain = Chains[P];
    // Keep only subsumption-maximal elements ("emp can be maintained in
    // the form of an antichain", Section 6).
    for (State R : Chain)
      if (BC.subsumedBy(Q, R))
        return;
    size_t Keep = 0;
    for (size_t I = 0; I < Chain.size(); ++I)
      if (!BC.subsumedBy(Chain[I], Q))
        Chain[Keep++] = Chain[I];
    Chain.resize(Keep);
    Chain.push_back(Q);
  }
};

} // namespace

const char *termcheck::emptinessStrategyName(EmptinessStrategy S) {
  switch (S) {
  case EmptinessStrategy::GaiserSchwoon:
    return "gaiser_schwoon";
  case EmptinessStrategy::Couvreur:
    return "couvreur";
  }
  return "?";
}

DifferenceResult termcheck::difference(const Buchi &A, ComplementOracle &BC,
                                       const DifferenceOptions &Opts) {
  assert(A.numSymbols() == BC.numSymbols() && "alphabet mismatch");
  assert(A.numConditions() + 1 <= 64 && "too many acceptance conditions");

  ProductSource Src(A, BC);
  // Fold every budget into one hook: the caller's sticky deadline /
  // cancellation, the per-construction state cap, and the shared resource
  // guard. Cap trips are remembered separately so the caller can tell
  // "this construction was too big" (degradable) from "the whole run is
  // over" (sticky).
  bool CapHit = false;
  std::function<bool()> Hook;
  if (Opts.ShouldAbort || Opts.MaxProductStates != 0 || Opts.Guard) {
    size_t Cap = Opts.MaxProductStates;
    ResourceGuard *Guard = Opts.Guard;
    Hook = [&Src, &BC, &CapHit, Cap, Guard,
            Outer = Opts.ShouldAbort]() -> bool {
      size_t Live = Src.numProductStates() + BC.numStatesDiscovered();
      if (Cap != 0 && Live > Cap) {
        CapHit = true;
        return true;
      }
      if (Guard) {
        if (Guard->exhausted())
          return true;
        if (Guard->wouldExceed(Live)) {
          CapHit = true;
          return true;
        }
      }
      return Outer && Outer();
    };
  }
  // Thread the budget into the oracle too: one product expansion can hide
  // an exponential NCSB split enumeration, and the search only polls
  // between expansions.
  BC.ShouldAbort = Hook;
  // State budgets need prompt polls: with the default 256-call stride a
  // small construction finishes (or overshoots the cap by hundreds of
  // states) before the first evaluation. Pure wall-clock/cancellation
  // hooks keep the cheap sparse stride.
  uint32_t PollStride = 256;
  if (Opts.MaxProductStates != 0 || Opts.Guard) {
    PollStride = 8;
    BC.setPollStride(8);
  }
  auto NewSearch = [&](SccSearchMode Mode) {
    SccSearch Search(Mode);
    Search.ShouldAbort = Hook;
    Search.PollStride = PollStride;
    return Search;
  };

  DifferenceResult Out{Buchi(A.numSymbols(), A.numConditions() + 1)};
  // A guard that is already exhausted (earlier subtraction, another
  // portfolio entrant) stops the construction before any work: the sticky
  // trip is run-level, not a per-construction cap.
  if (Opts.Guard && Opts.Guard->exhausted()) {
    Out.Aborted = true;
    return Out;
  }

  // Only completed constructions are charged: an aborted one frees its
  // states on return, and charging it would double-bill retries.
  auto ChargeGuard = [&] {
    if (Opts.Guard)
      Opts.Guard->chargeStates(Out.ProductStatesExplored +
                               Out.ComplementStatesDiscovered);
  };
  // Copies a search's outcome into Out; \returns false when it aborted.
  // An oracle-side abort truncated some successor list, so the search saw
  // an under-approximated product; that is as invalid as a search abort.
  auto Record = [&](const SccSearchResult &R) {
    Out.ProductStatesExplored = R.StatesExplored;
    Out.ComplementStatesDiscovered = BC.numStatesDiscovered();
    Out.SubsumptionPruned = R.ClosedCutoffs;
    Out.ArcsMemoized = Src.numArcsMemoized();
    Out.Aborted = R.Aborted || BC.aborted();
    Out.HitStateCap = CapHit;
    return !Out.Aborted;
  };

  if (Opts.Emptiness == EmptinessStrategy::Couvreur) {
    // A first-accepting pass with on-stack cutoffs answers emptiness
    // first. When the difference is empty this replaces Algorithm 1 AND
    // the materialization; when it is nonempty, the classify pass below
    // re-runs over the warm arc memo.
    TraceSpan Span(Opts.Tracer, "emptiness.couvreur");
    SccSearch Pass = NewSearch(SccSearchMode::FirstAccepting);
    // The pass keeps a PRIVATE antichain: entries added under a
    // provisionally justified on-stack prune are discarded on a cutoff
    // restart, and must never leak into Algorithm 1's.
    EmpAntichain PassEmp(Src, BC);
    if (Opts.UseSubsumption) {
      PassEmp.attach(Pass, A.numStates());
      // The on-stack cutoff needs an EARLY relation (DESIGN.md section
      // 17); the oracle knows whether its preorder qualifies.
      if (BC.subsumptionIsEarly())
        Pass.SubsumedBy = [&Src, &BC](State Sub, State Sup) {
          if (Sub == Sup)
            return true; // syntactic fast path
          auto [PA, QA] = Src.decode(Sub);
          auto [PB, QB] = Src.decode(Sup);
          return PA == PB && (QA == QB || BC.subsumedBy(QA, QB));
        };
    }
    Src.EmptinessStepFaults = true;
    SccSearchResult R = Pass.run(Src);
    Src.EmptinessStepFaults = false;
    Out.Emptiness = Opts.Emptiness;
    Out.CouvreurSccs = R.SccsClosed;
    Out.CouvreurCutoffs = R.OnStackCutoffs + R.ClosedCutoffs;
    perf::local().CouvreurSccs += Out.CouvreurSccs;
    perf::local().CouvreurCutoffs += Out.CouvreurCutoffs;
    if (!Record(R))
      return Out;
    if (R.LanguageEmpty) {
      ChargeGuard();
      return Out;
    }
  }

  SccSearch Classify = NewSearch(SccSearchMode::Classify);
  EmpAntichain Emp(Src, BC);
  if (Opts.UseSubsumption)
    Emp.attach(Classify, A.numStates());
  SccSearchResult R = Classify.run(Src);
  Out.IsEmpty = R.LanguageEmpty;
  if (!Record(R))
    return Out;

  // Materialize the useful part. Product condition bit 0 is the
  // complement's; shift A's conditions up by one to match acceptMask().
  // Product ids are dense, so the useful->fresh map is a flat vector with
  // a sentinel for dropped states.
  constexpr State NotUseful = ~State(0);
  std::vector<State> Map(Src.numProductStates(), NotUseful);
  for (State S : R.Useful) {
    State Fresh = Out.D.addState();
    Out.D.setAcceptMask(Fresh, Src.acceptMask(S));
    Map[S] = Fresh;
  }
  std::vector<Buchi::Arc> Buf;
  uint32_t PollCountdown = 256;
  for (State S : R.Useful) {
    if (Hook && --PollCountdown == 0) {
      PollCountdown = 256;
      if (Hook()) {
        Out.Aborted = true;
        Out.HitStateCap = CapHit;
        return Out;
      }
    }
    Buf.clear();
    Src.arcs(S, Buf);
    for (const Buchi::Arc &Arc : Buf)
      if (Arc.To < Map.size() && Map[Arc.To] != NotUseful)
        Out.D.addTransition(Map[S], Arc.Sym, Map[Arc.To]);
  }
  for (State S : Src.initialStates()) {
    if (Map[S] != NotUseful)
      Out.D.addInitial(Map[S]);
  }
  Out.ArcsMemoized = Src.numArcsMemoized();
  ChargeGuard();
  return Out;
}
