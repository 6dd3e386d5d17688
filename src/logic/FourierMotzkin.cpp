//===- logic/FourierMotzkin.cpp - Linear satisfiability & entailment -----===//
//
// Part of the termcheck project (PLDI'18 reproduction).
//
//===----------------------------------------------------------------------===//

#include "logic/FourierMotzkin.h"

#include <algorithm>
#include <cassert>

using namespace termcheck;

namespace {

/// Substitutes variable \p V away in \p Target using the equality
/// `Eq.expr() == 0`, which must mention V. The transformation multiplies the
/// target through by the (positive) V-coefficient of the equality, which
/// preserves both EQ and LE atoms.
Constraint substituteViaEquality(const Constraint &Target, const Constraint &Eq,
                                 VarId V) {
  assert(Eq.rel() == RelKind::EQ && Eq.mentions(V) && "bad pivot equality");
  int64_t A = Eq.expr().coeff(V);
  LinearExpr EqExpr = Eq.expr();
  if (A < 0) {
    EqExpr = -EqExpr;
    A = -A;
  }
  int64_t C = Target.expr().coeff(V);
  if (C == 0)
    return Target;
  // a*(target) - c*(equality) cancels V; a > 0 keeps LE orientation.
  LinearExpr Combined = Target.expr().scaledBy(A) - EqExpr.scaledBy(C);
  return Constraint::make(std::move(Combined), Target.rel());
}

} // namespace

Cube fm::eliminate(const Cube &C, VarId V) {
  if (C.isContradictory())
    return Cube::contradiction();
  if (!C.mentions(V))
    return C;

  // Prefer substitution through an equality: exact and no blowup.
  for (const Constraint &Atom : C.atoms()) {
    if (Atom.rel() != RelKind::EQ || !Atom.mentions(V))
      continue;
    Cube Out;
    Out.reserve(C.size());
    for (const Constraint &Other : C.atoms()) {
      if (&Other == &Atom)
        continue;
      Out.add(substituteViaEquality(Other, Atom, V));
      if (Out.isContradictory())
        return Out;
    }
    return Out;
  }

  // Classical FM combination of lower and upper bounds on V.
  std::vector<const Constraint *> Pos, Neg;
  Cube Out;
  Out.reserve(C.size());
  for (const Constraint &Atom : C.atoms()) {
    int64_t Coeff = Atom.expr().coeff(V);
    if (Coeff > 0)
      Pos.push_back(&Atom); // a*V + e <= 0: upper bound
    else if (Coeff < 0)
      Neg.push_back(&Atom); // -a*V + e <= 0: lower bound
    else
      Out.add(Atom);
  }
  for (const Constraint *U : Pos) {
    for (const Constraint *L : Neg) {
      int64_t A = U->expr().coeff(V);
      int64_t B = -L->expr().coeff(V);
      assert(A > 0 && B > 0 && "sign classification broken");
      LinearExpr Combined = U->expr().scaledBy(B) + L->expr().scaledBy(A);
      Out.add(Constraint::make(std::move(Combined), RelKind::LE));
      if (Out.isContradictory())
        return Out;
    }
  }
  return Out;
}

Cube fm::eliminateAll(Cube C, const std::vector<VarId> &Vars) {
  for (VarId V : Vars) {
    C = eliminate(C, V);
    if (C.isContradictory())
      break;
  }
  return C;
}

std::vector<VarId> fm::variablesOf(const Cube &C) {
  // Collect-then-normalize: this runs once per elimination round, where a
  // node-per-element std::set dominated the whole satisfiability check.
  std::vector<VarId> Vars;
  for (const Constraint &Atom : C.atoms())
    for (const LinearExpr::Term &T : Atom.expr().terms())
      Vars.push_back(T.Var);
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  return Vars;
}

namespace {

/// The uncached decision procedure behind fm::isSatisfiable.
bool decideSatisfiable(const Cube &C) {
  Cube Work = C;
  // Eliminate cheapest variables first (fewest bound pairs) to delay blowup.
  while (true) {
    if (Work.isContradictory())
      return false;
    std::vector<VarId> Vars = fm::variablesOf(Work);
    if (Vars.empty())
      return true; // all atoms ground and individually true by normalization
    // Tally bound counts per variable in one pass over the atoms (Vars is
    // sorted, so position lookup is a binary search); the old
    // per-variable re-scan was quadratic in practice.
    std::vector<uint32_t> NPos(Vars.size(), 0), NNeg(Vars.size(), 0),
        NEq(Vars.size(), 0);
    for (const Constraint &Atom : Work.atoms()) {
      bool IsEq = Atom.rel() == RelKind::EQ;
      for (const LinearExpr::Term &T : Atom.expr().terms()) {
        size_t I = static_cast<size_t>(
            std::lower_bound(Vars.begin(), Vars.end(), T.Var) - Vars.begin());
        if (IsEq)
          ++NEq[I];
        else if (T.Coeff > 0)
          ++NPos[I];
        else
          ++NNeg[I];
      }
    }
    VarId Best = Vars.front();
    size_t BestCost = static_cast<size_t>(-1);
    for (size_t I = 0; I < Vars.size(); ++I) {
      size_t Cost =
          NEq[I] > 0 ? 0 : static_cast<size_t>(NPos[I]) * NNeg[I];
      if (Cost < BestCost) {
        BestCost = Cost;
        Best = Vars[I];
      }
    }
    Work = fm::eliminate(Work, Best);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-run satisfiability memo
//===----------------------------------------------------------------------===//

/// Direct-mapped slots over a flat key arena. A key is the cube's exact atom
/// sequence: per atom a header word (relation, width flag, term count), the
/// constant, then one word per term (coefficient and variable packed) or,
/// when some coefficient of the atom does not fit 32 bits, two. The key of a
/// query is encoded at the arena's free end; a miss commits it by advancing
/// the end, so lookups allocate nothing. A slot collision overwrites the
/// slot (its old key stays in the arena as garbage); a full arena clears
/// the whole memo.
struct fm::SatMemo {
  struct Slot {
    uint32_t Tag = 0;    ///< high half of the key's hash
    uint16_t Offset = 0; ///< first key word in the arena
    uint16_t LenAns = 0; ///< key length << 1 | answer; 0 marks an empty slot
  };
  static constexpr size_t NumSlots = 2048;
  static constexpr size_t CounterBytes = 4 * sizeof(uint64_t);
  static constexpr size_t ArenaWords =
      (SatMemoScope::FootprintBytes - NumSlots * sizeof(Slot) -
       CounterBytes) /
      sizeof(int64_t);

  Slot Slots[NumSlots];
  int64_t Arena[ArenaWords]; // left uninitialized; only [0, Used) is read
  uint64_t Used = 0;
  uint64_t Hits = 0, Misses = 0, Clears = 0;

  void clear() {
    std::fill(std::begin(Slots), std::end(Slots), Slot());
    Used = 0;
    ++Clears;
  }

  /// \returns an upper bound on the key length of \p C in words.
  static size_t maxKeyWords(const Cube &C) {
    size_t N = 1;
    for (const Constraint &Atom : C.atoms())
      N += 2 + 2 * Atom.expr().terms().size();
    return N;
  }

  /// Writes the key of \p C at \p Out and its length to \p Len.
  /// \returns the key's hash.
  static uint64_t encode(const Cube &C, int64_t *Out, size_t &Len) {
    int64_t *Begin = Out;
    uint64_t H = 0x243F6A8885A308D3ULL;
    auto Put = [&](int64_t W) {
      *Out++ = W;
      H = ((H << 5 | H >> 59) ^ static_cast<uint64_t>(W)) *
          0x9E3779B97F4A7C15ULL;
    };
    Put(static_cast<int64_t>(C.size()));
    for (const Constraint &Atom : C.atoms()) {
      const auto &Terms = Atom.expr().terms();
      bool Wide = std::any_of(Terms.begin(), Terms.end(),
                              [](const LinearExpr::Term &T) {
                                return T.Coeff < INT32_MIN ||
                                       T.Coeff > INT32_MAX;
                              });
      Put(static_cast<int64_t>(Terms.size()) << 2 | (Wide ? 2 : 0) |
          (Atom.rel() == RelKind::EQ ? 1 : 0));
      Put(Atom.expr().constantTerm());
      for (const LinearExpr::Term &T : Terms) {
        if (Wide) {
          Put(T.Var);
          Put(T.Coeff);
        } else {
          uint64_t Coeff = static_cast<uint32_t>(T.Coeff);
          Put(static_cast<int64_t>(Coeff << 32 | T.Var));
        }
      }
    }
    Len = static_cast<size_t>(Out - Begin);
    // Final avalanche (murmur3's fmix64) so both halves are well mixed.
    H ^= H >> 33;
    H *= 0xFF51AFD7ED558CCDULL;
    H ^= H >> 33;
    H *= 0xC4CEB9FE1A85EC53ULL;
    H ^= H >> 33;
    return H;
  }

  bool isSatisfiable(const Cube &C) {
    size_t Room = maxKeyWords(C);
    if (Room > ArenaWords) { // too long to store: decide uncached
      ++Misses;
      return decideSatisfiable(C);
    }
    if (Used + Room > ArenaWords)
      clear();
    int64_t *Key = Arena + Used;
    size_t Len;
    uint64_t H = encode(C, Key, Len);
    Slot &S = Slots[H & (NumSlots - 1)];
    uint32_t Tag = static_cast<uint32_t>(H >> 32);
    if (S.LenAns >> 1 == Len && S.Tag == Tag &&
        std::equal(Key, Key + Len, Arena + S.Offset)) {
      ++Hits;
      return S.LenAns & 1;
    }
    ++Misses;
    bool Sat = decideSatisfiable(C);
    S.Tag = Tag;
    S.Offset = static_cast<uint16_t>(Used);
    S.LenAns = static_cast<uint16_t>(Len << 1 | (Sat ? 1 : 0));
    Used += Len;
    return Sat;
  }
};

static_assert(sizeof(fm::SatMemo) <= fm::SatMemoScope::FootprintBytes,
              "the satisfiability memo outgrew its footprint");
static_assert(fm::SatMemo::ArenaWords < 0x7FFF,
              "arena offsets and key lengths must fit the 16-bit slot fields");

namespace {
/// The innermost memo of this thread; null outside every scope.
thread_local fm::SatMemo *ActiveMemo = nullptr;
} // namespace

// Default-initialized: the slots start empty and the arena's pages stay
// untouched until keys are written to them.
fm::SatMemoScope::SatMemoScope()
    : Memo(std::make_unique_for_overwrite<SatMemo>()), Prev(ActiveMemo) {
  ActiveMemo = Memo.get();
}

fm::SatMemoScope::~SatMemoScope() { ActiveMemo = Prev; }

uint64_t fm::SatMemoScope::hits() const { return Memo->Hits; }
uint64_t fm::SatMemoScope::misses() const { return Memo->Misses; }
uint64_t fm::SatMemoScope::clears() const { return Memo->Clears; }
bool fm::SatMemoScope::active() { return ActiveMemo != nullptr; }

bool fm::isSatisfiable(const Cube &C) {
  if (C.isContradictory())
    return false;
  if (SatMemo *M = ActiveMemo)
    return M->isSatisfiable(C);
  return decideSatisfiable(C);
}

namespace {

/// floor(A / B) for B != 0 (C++ division truncates toward zero).
__int128 floorDiv(__int128 A, __int128 B) {
  __int128 Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

/// ceil(A / B) for B != 0.
__int128 ceilDiv(__int128 A, __int128 B) {
  __int128 Q = A / B;
  if ((A % B != 0) && ((A < 0) == (B < 0)))
    ++Q;
  return Q;
}

} // namespace

std::optional<std::map<VarId, int64_t>>
fm::sampleIntegerPoint(const Cube &C) {
  if (C.isContradictory())
    return std::nullopt;
  std::vector<VarId> Vars = variablesOf(C);

  // Forward elimination, keeping every intermediate cube: Cubes[i] mentions
  // only Vars[i..].
  std::vector<Cube> Cubes;
  Cubes.reserve(Vars.size() + 1);
  Cubes.push_back(C);
  for (VarId V : Vars) {
    Cubes.push_back(eliminate(Cubes.back(), V));
    if (Cubes.back().isContradictory())
      return std::nullopt;
  }

  // Reverse back-substitution: pick Vars[i] from its interval in Cubes[i]
  // under the values already chosen for Vars[i+1..].
  constexpr __int128 Unbounded = static_cast<__int128>(1) << 100;
  std::map<VarId, int64_t> Model;
  for (size_t I = Vars.size(); I-- > 0;) {
    VarId V = Vars[I];
    __int128 Lo = -Unbounded, Hi = Unbounded;
    for (const Constraint &Atom : Cubes[I].atoms()) {
      __int128 A = Atom.expr().coeff(V);
      // The atom under the partial model, with V itself left symbolic:
      // A*V + Rest (REL) 0.
      __int128 Rest = Atom.expr().constantTerm();
      for (const LinearExpr::Term &T : Atom.expr().terms()) {
        if (T.Var == V)
          continue;
        auto It = Model.find(T.Var);
        if (It == Model.end())
          return std::nullopt; // unexpected free variable
        Rest += static_cast<__int128>(T.Coeff) * It->second;
      }
      if (A == 0) {
        bool Ok = Atom.rel() == RelKind::LE ? Rest <= 0 : Rest == 0;
        if (!Ok)
          return std::nullopt;
        continue;
      }
      if (Atom.rel() == RelKind::EQ) {
        if ((-Rest) % A != 0)
          return std::nullopt; // no integer solution on this branch
        __int128 Val = (-Rest) / A;
        Lo = std::max(Lo, Val);
        Hi = std::min(Hi, Val);
      } else if (A > 0) {
        Hi = std::min(Hi, floorDiv(-Rest, A));
      } else {
        Lo = std::max(Lo, ceilDiv(-Rest, A));
      }
    }
    if (Lo > Hi)
      return std::nullopt; // integer gap of the rational relaxation
    __int128 Val = 0;
    if (Val < Lo)
      Val = Lo;
    if (Val > Hi)
      Val = Hi;
    if (Val < INT64_MIN || Val > INT64_MAX)
      return std::nullopt;
    Model[V] = static_cast<int64_t>(Val);
  }

  // The back-substitution is exact only modulo the elimination's integer
  // overapproximation; verify before handing the model out.
  auto ValueOf = [&Model](VarId V) -> int64_t {
    auto It = Model.find(V);
    return It == Model.end() ? 0 : It->second;
  };
  if (!C.holds(ValueOf))
    return std::nullopt;
  return Model;
}

bool fm::entails(const Cube &P, const Constraint &C) {
  if (P.isContradictory() || C.isTrivallyTrue())
    return true;
  if (C.isTrivallyFalse())
    return !isSatisfiable(P);
  // Syntactic subsumption: Cube::add keeps at most one (tightest) atom per
  // term set, so one scan decides whether P already contains an atom at
  // least as tight as C. Only positive answers short-circuit -- a looser
  // atom over the same terms says nothing about what the rest of P implies.
  for (const Constraint &Atom : P.atoms()) {
    if (Atom.expr().terms() != C.expr().terms())
      continue;
    int64_t PC = Atom.expr().constantTerm();
    int64_t CC = C.expr().constantTerm();
    // t + PC (EQ|LE) 0 forces t <= -PC, so t + CC <= 0 whenever PC >= CC.
    if (C.rel() == RelKind::LE ? PC >= CC
                               : Atom.rel() == RelKind::EQ && PC == CC)
      return true;
    break;
  }
  // P |= C  iff  P /\ not(C) is unsatisfiable; the negation of an equality
  // is a disjunction, so every disjunct must be jointly unsat with P.
  for (const Constraint &NegAtom : C.negation()) {
    Cube Query = P;
    Query.add(NegAtom);
    if (isSatisfiable(Query))
      return false;
  }
  return true;
}

bool fm::entails(const Cube &P, const Cube &Q) {
  if (Q.isContradictory())
    return !isSatisfiable(P);
  for (const Constraint &Atom : Q.atoms())
    if (!entails(P, Atom))
      return false;
  return true;
}
