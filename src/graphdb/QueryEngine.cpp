//===- graphdb/QueryEngine.cpp - Query evaluation --------------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/QueryEngine.h"

#include "obs/Counters.h"
#include "support/Deadline.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <set>

using namespace gjs;
using namespace gjs::graphdb;

//===----------------------------------------------------------------------===//
// Plan rendering (EXPLAIN) and the step profiler (PROFILE)
//===----------------------------------------------------------------------===//

/// Renders a node pattern like `(src:Object {taint: 'true'})`.
static std::string renderNode(const NodePattern &N) {
  std::string Out = "(" + N.Var;
  if (!N.Label.empty())
    Out += ":" + N.Label;
  if (!N.Props.empty()) {
    Out += " {";
    bool First = true;
    for (const auto &[Key, Value] : N.Props) {
      if (!First)
        Out += ", ";
      First = false;
      Out += Key + ": '" + Value + "'";
    }
    Out += "}";
  }
  return Out + ")";
}

/// Renders a relationship pattern with its *effective* hop bounds under the
/// engine options (`-[:D|P*0..24]->`): EXPLAIN shows the plan the engine
/// will actually execute, unbounded segments included.
static std::string renderRel(const RelPattern &R, const EngineOptions &O) {
  std::string Mid = "[";
  Mid += R.Var;
  if (!R.Types.empty()) {
    Mid += ":";
    for (size_t I = 0; I < R.Types.size(); ++I) {
      if (I)
        Mid += "|";
      Mid += R.Types[I];
    }
  }
  if (!R.Props.empty()) {
    Mid += " {";
    bool First = true;
    for (const auto &[Key, Value] : R.Props) {
      if (!First)
        Mid += ", ";
      First = false;
      Mid += Key + ": '" + Value + "'";
    }
    Mid += "}";
  }
  if (R.VarLength) {
    uint32_t Max = R.Unbounded ? O.MaxHops : R.MaxHops;
    Mid += "*" + std::to_string(R.MinHops) + ".." + std::to_string(Max);
  }
  Mid += "]";
  return R.Reverse ? "<-" + Mid + "-" : "-" + Mid + "->";
}

std::vector<StepProfile> graphdb::planSteps(const Query &Q,
                                            const EngineOptions &O) {
  std::vector<StepProfile> Steps;
  for (size_t I = 0; I < Q.Matches.size(); ++I) {
    const MatchItem &M = Q.Matches[I];
    StepProfile Scan;
    Scan.Item = I;
    Scan.Pos = 0;
    Scan.Desc = "scan " + renderNode(M.Nodes[0]);
    if (!M.PathVar.empty())
      Scan.Desc += " [path " + M.PathVar + "]";
    Steps.push_back(std::move(Scan));
    for (size_t R = 0; R < M.Rels.size(); ++R) {
      StepProfile Exp;
      Exp.Item = I;
      Exp.Pos = R + 1;
      Exp.Desc = "expand " + renderRel(M.Rels[R], O) +
                 renderNode(M.Nodes[R + 1]);
      Steps.push_back(std::move(Exp));
    }
  }
  return Steps;
}

std::string graphdb::explainQuery(const Query &Q, const EngineOptions &O) {
  std::string Out;
  std::vector<StepProfile> Steps = planSteps(Q, O);
  size_t Idx = 0;
  for (const StepProfile &S : Steps) {
    if (S.Pos == 0 && S.Item > 0)
      Out += "\n";
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "  step %zu: ", Idx++);
    Out += Buf + S.Desc + "\n";
  }
  if (!Q.Where.empty())
    Out += "  filter: " + std::to_string(Q.Where.size()) +
           " WHERE condition(s) applied per candidate row\n";
  if (Q.Distinct)
    Out += "  distinct: projected rows deduplicated\n";
  if (Q.Limit)
    Out += "  limit: " + std::to_string(Q.Limit) + "\n";
  return Out;
}

std::string graphdb::renderProfile(const QueryProfile &P) {
  std::string Out;
  for (size_t I = 0; I < P.Steps.size(); ++I) {
    const StepProfile &S = P.Steps[I];
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "  step %zu: %-58s candidates=%llu matches=%llu %.3fms\n",
                  I, S.Desc.c_str(),
                  static_cast<unsigned long long>(S.Candidates),
                  static_cast<unsigned long long>(S.Matches),
                  S.Seconds * 1e3);
    Out += Buf;
  }
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "  total: rows=%llu steps=%llu backtracks=%llu %.3fms%s\n",
                static_cast<unsigned long long>(P.Rows),
                static_cast<unsigned long long>(P.Work),
                static_cast<unsigned long long>(P.Backtracks),
                P.TotalSeconds * 1e3, P.TimedOut ? " (timed out)" : "");
  Out += Buf;
  return Out;
}

/// Per-run profiling context. Exclusive per-step time uses the classic
/// profiler scheme: a stack of active steps, and every enter/exit attributes
/// the wall-clock elapsed since the previous transition to the step that
/// was running.
struct QueryEngine::Profiler {
  QueryProfile *Out = nullptr;
  std::vector<size_t> Stack;
  std::chrono::steady_clock::time_point Last;

  void start(QueryProfile *Profile, const Query &Q, const EngineOptions &O) {
    Out = Profile;
    Out->Steps = planSteps(Q, O);
    Last = std::chrono::steady_clock::now();
  }

  void mark() {
    auto Now = std::chrono::steady_clock::now();
    if (!Stack.empty())
      Out->Steps[Stack.back()].Seconds +=
          std::chrono::duration<double>(Now - Last).count();
    Last = Now;
  }

  void enter(size_t StepIdx) {
    mark();
    Stack.push_back(StepIdx);
  }

  void exit() {
    mark();
    Stack.pop_back();
  }

  void candidate(size_t StepIdx) { ++Out->Steps[StepIdx].Candidates; }
  void match(size_t StepIdx) { ++Out->Steps[StepIdx].Matches; }

  /// RAII enter/exit of one plan step (no-op without a profiler).
  struct Scope {
    Profiler *P;
    Scope(Profiler *P, size_t StepIdx) : P(P) {
      if (P)
        P->enter(StepIdx);
    }
    ~Scope() {
      if (P)
        P->exit();
    }
  };
};

//===----------------------------------------------------------------------===//
// Compilation: the query against one graph's interned ids
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t NoSlot = NoId;

/// A (key column, value id) property filter.
using PropFilter = std::pair<uint32_t, StrId>;

struct CompiledNode {
  uint32_t Slot = NoSlot; ///< Variable slot; NoSlot when anonymous.
  bool Never = false;     ///< Unknown label, key or value: matches nothing.
  uint32_t Label = NoId;  ///< NoId = any label.
  std::vector<PropFilter> Props;
};

struct CompiledRel {
  bool Never = false;
  uint64_t TypeMask = ~uint64_t(0); ///< Bit t set = type id t allowed.
  std::vector<PropFilter> Props;
  uint32_t MinHops = 1;
  uint32_t MaxHops = 1;
  bool VarLength = false;
  bool Reverse = false;
};

struct CompiledItem {
  std::vector<CompiledNode> Nodes;
  std::vector<CompiledRel> Rels;
  HandleSpan Scan; ///< Start candidates: the first node's label list.
};

struct CompiledCond {
  Condition::Kind K = Condition::Kind::Compare;
  bool Negated = false;
  // Compare / In. A NoId key reads as the empty string, like an absent one.
  uint32_t LHSSlot = NoSlot, LHSKey = NoId;
  bool RHSIsLiteral = true;
  StrId RHSLiteral = NoStr; ///< NoStr: a literal no stored value equals.
  uint32_t RHSSlot = NoSlot, RHSKey = NoId;
  bool NotEqual = false;
  std::vector<StrId> Set; ///< In: sorted ids of the stored list values.
  // PathPredicate.
  const QueryEngine::PathPredicate *Pred = nullptr;
  size_t PathItem = 0;
  // Or.
  std::vector<CompiledCond> Alternatives;
};

struct CompiledReturn {
  enum class Kind { NodeId, NodeProp, Path, Missing } K = Kind::Missing;
  uint32_t Slot = NoSlot;
  uint32_t Key = NoId;
  size_t PathItem = 0;
};

} // namespace

struct QueryEngine::Plan {
  const Query *Q = nullptr;
  std::vector<CompiledItem> Items;
  std::vector<size_t> StepBase; ///< First plan step of each item.
  size_t NumSteps = 0;
  std::vector<std::string> SlotNames; ///< Node variable of each slot.
  /// Path variables: name -> the first MATCH item that names it.
  std::vector<std::pair<std::string, size_t>> PathVars;
  std::vector<CompiledCond> Where;
  /// A WHERE reference to an unbound variable or an unregistered predicate
  /// fails every row.
  bool WhereNever = false;
  std::vector<CompiledReturn> Returns;
};

class QueryEngine::Compiler {
public:
  Compiler(const PropertyGraph &G, const EngineOptions &O,
           const std::map<std::string, QueryEngine::PathPredicate> &Preds)
      : G(G), O(O), Preds(Preds) {}

  void compile(const Query &Q, QueryEngine::Plan &P) {
    P.Q = &Q;
    for (size_t I = 0; I < Q.Matches.size(); ++I) {
      const MatchItem &M = Q.Matches[I];
      CompiledItem CI;
      for (const NodePattern &N : M.Nodes)
        CI.Nodes.push_back(node(N, P));
      for (const RelPattern &R : M.Rels)
        CI.Rels.push_back(rel(R));
      CI.Scan = G.nodesByLabel(M.Nodes[0].Label);
      if (!M.PathVar.empty() && !pathItem(P, M.PathVar, nullptr))
        P.PathVars.emplace_back(M.PathVar, I);
      P.StepBase.push_back(P.NumSteps);
      P.NumSteps += 1 + M.Rels.size();
      P.Items.push_back(std::move(CI));
    }
    for (const Condition &C : Q.Where)
      P.Where.push_back(cond(C, P));
    for (const ReturnItem &R : Q.Returns) {
      CompiledReturn CR;
      if (uint32_t S = slot(P, R.Var); S != NoSlot) {
        CR.K = R.Key.empty() ? CompiledReturn::Kind::NodeId
                             : CompiledReturn::Kind::NodeProp;
        CR.Slot = S;
        CR.Key = G.nodeKeyId(R.Key);
      } else if (pathItem(P, R.Var, &CR.PathItem)) {
        CR.K = CompiledReturn::Kind::Path;
      }
      P.Returns.push_back(CR);
    }
  }

private:
  const PropertyGraph &G;
  const EngineOptions &O;
  const std::map<std::string, QueryEngine::PathPredicate> &Preds;

  static uint32_t slot(const QueryEngine::Plan &P, const std::string &Var) {
    for (size_t I = 0; I < P.SlotNames.size(); ++I)
      if (P.SlotNames[I] == Var)
        return static_cast<uint32_t>(I);
    return NoSlot;
  }

  static bool pathItem(const QueryEngine::Plan &P, const std::string &Var,
                       size_t *Item) {
    for (const auto &[Name, I] : P.PathVars)
      if (Name == Var) {
        if (Item)
          *Item = I;
        return true;
      }
    return false;
  }

  CompiledNode node(const NodePattern &N, QueryEngine::Plan &P) {
    CompiledNode C;
    if (!N.Var.empty()) {
      C.Slot = slot(P, N.Var);
      if (C.Slot == NoSlot) {
        C.Slot = static_cast<uint32_t>(P.SlotNames.size());
        P.SlotNames.push_back(N.Var);
      }
    }
    if (!N.Label.empty()) {
      C.Label = G.labelId(N.Label);
      C.Never |= C.Label == NoId;
    }
    for (const auto &[Key, Value] : N.Props) {
      PropFilter F{G.nodeKeyId(Key), G.strId(Value)};
      C.Never |= F.first == NoId || F.second == NoStr;
      C.Props.push_back(F);
    }
    return C;
  }

  CompiledRel rel(const RelPattern &R) {
    CompiledRel C;
    if (!R.Types.empty()) {
      C.TypeMask = 0;
      for (const std::string &T : R.Types)
        if (uint32_t Id = G.relTypeId(T); Id != NoId)
          C.TypeMask |= uint64_t(1) << Id;
    }
    for (const auto &[Key, Value] : R.Props) {
      PropFilter F{G.relKeyId(Key), G.strId(Value)};
      C.Never |= F.first == NoId || F.second == NoStr;
      C.Props.push_back(F);
    }
    C.VarLength = R.VarLength;
    C.Reverse = R.Reverse;
    C.MinHops = R.VarLength ? R.MinHops : 1;
    C.MaxHops = R.VarLength ? (R.Unbounded ? O.MaxHops : R.MaxHops) : 1;
    return C;
  }

  CompiledCond cond(const Condition &C, QueryEngine::Plan &P) {
    CompiledCond CC;
    CC.K = C.K;
    CC.Negated = C.Negated;
    switch (C.K) {
    case Condition::Kind::Compare:
    case Condition::Kind::In:
      CC.LHSSlot = slot(P, C.LHSVar);
      CC.LHSKey = G.nodeKeyId(C.LHSKey);
      P.WhereNever |= CC.LHSSlot == NoSlot;
      CC.NotEqual = C.NotEqual;
      CC.RHSIsLiteral = C.RHSIsLiteral;
      if (C.K == Condition::Kind::In) {
        for (const std::string &V : C.RHSList)
          if (StrId Id = G.strId(V); Id != NoStr)
            CC.Set.push_back(Id);
        std::sort(CC.Set.begin(), CC.Set.end());
      } else if (C.RHSIsLiteral) {
        CC.RHSLiteral = G.strId(C.RHSLiteral);
      } else {
        CC.RHSSlot = slot(P, C.RHSVar);
        CC.RHSKey = G.nodeKeyId(C.RHSKey);
        P.WhereNever |= CC.RHSSlot == NoSlot;
      }
      break;
    case Condition::Kind::PathPredicate: {
      auto It = Preds.find(C.PredName);
      CC.Pred = It == Preds.end() ? nullptr : &It->second;
      P.WhereNever |= !CC.Pred || !pathItem(P, C.PredArg, &CC.PathItem);
      break;
    }
    case Condition::Kind::Or:
      for (const Condition &A : C.Alternatives)
        CC.Alternatives.push_back(cond(A, P));
      break;
    }
    return CC;
  }
};

//===----------------------------------------------------------------------===//
// Matching
//===----------------------------------------------------------------------===//

/// The (node, fold state) pairs one segment walk has visited: an
/// open-addressing hash set cleared in O(1) by bumping an epoch stamp, so
/// each plan step reuses one table across all of its walks. A
/// std::unordered_set cleared per walk pays a bucket-array memset per
/// walk and an allocation per insert: it ran the pollution query about
/// 2x slower (EXPERIMENTS.md, "Visited set").
class QueryEngine::VisitedSet {
public:
  void reset() {
    Live = 0;
    if (++Epoch != 0)
      return;
    for (Entry &E : Slots) // Stamp wrap-around: clear for real.
      E.Epoch = 0;
    Epoch = 1;
  }

  /// Inserts (N, S); false when it was already present.
  bool insert(NodeHandle N, int64_t S) {
    if ((Live + 1) * 2 > Slots.size())
      grow();
    size_t Mask = Slots.size() - 1;
    for (size_t I = hash(N, S) & Mask;; I = (I + 1) & Mask) {
      Entry &E = Slots[I];
      if (E.Epoch != Epoch) {
        E = {S, N, Epoch};
        ++Live;
        return true;
      }
      if (E.Node == N && E.State == S)
        return false;
    }
  }

private:
  struct Entry {
    int64_t State = 0;
    NodeHandle Node = 0;
    uint32_t Epoch = 0; ///< Live in the current walk iff equal to Epoch.
  };
  std::vector<Entry> Slots;
  size_t Live = 0;
  uint32_t Epoch = 1;

  static size_t hash(NodeHandle N, int64_t S) {
    uint64_t K = (uint64_t(N) * 0x9E3779B97F4A7C15ull) ^
                 (uint64_t(S) * 0xC2B2AE3D27D4EB4Full);
    return static_cast<size_t>(K ^ (K >> 29));
  }

  void grow() {
    std::vector<Entry> Old = std::move(Slots);
    Slots.assign(std::max<size_t>(64, Old.size() * 2), Entry());
    size_t Mask = Slots.size() - 1;
    for (const Entry &E : Old) {
      if (E.Epoch != Epoch)
        continue;
      size_t I = hash(E.Node, E.State) & Mask;
      while (Slots[I].Epoch == Epoch)
        I = (I + 1) & Mask;
      Slots[I] = E;
    }
  }
};

/// Mutable matcher state threaded through the backtracking search.
struct QueryEngine::MatchState {
  const Plan *P = nullptr;
  /// Node variable bindings by slot (InvalidHandle = unbound).
  std::vector<NodeHandle> Nodes;
  /// The path matched so far by each MATCH item. Items nest strictly, so an
  /// earlier item's path stays intact while later items match; a path
  /// variable reads its item's path.
  std::vector<Path> ItemPath;
  /// One visited set per plan step (at most one walk per step is active).
  std::vector<VisitedSet> Visited;
  /// Projected rows already emitted (RETURN DISTINCT).
  std::set<std::vector<std::string>> SeenRows;
  uint64_t Work = 0;
  uint64_t Bindings = 0;   ///< Candidate variable binds (obs counter).
  uint64_t Backtracks = 0; ///< Path-element pops during segment walks.
  bool Aborted = false;
  bool RowLimitHit = false;
  /// Non-null in PROFILE mode only.
  Profiler *Prof = nullptr;
};

/// One relationship-segment expansion: the compiled pattern pieces plus the
/// step's profile index and visited set.
struct QueryEngine::Segment {
  size_t ItemIdx = 0;
  size_t NodeIdx = 0;
  size_t StepIdx = 0;
  const CompiledRel *Rel = nullptr;
  const CompiledNode *Next = nullptr;
  bool UseFold = false;
  VisitedSet *Visited = nullptr;
};

QueryEngine::QueryEngine(const PropertyGraph &Graph, EngineOptions O)
    : G(Graph), Options(O) {}

void QueryEngine::registerPathPredicate(const std::string &Name,
                                        PathPredicate Pred) {
  Predicates[Name] = std::move(Pred);
}

namespace {

bool nodeMatches(const PropertyGraph &G, NodeHandle H, const CompiledNode &N) {
  if (N.Never || (N.Label != NoId && G.labelOf(H) != N.Label))
    return false;
  for (const PropFilter &F : N.Props)
    if (G.propId(H, F.first) != F.second)
      return false;
  return true;
}

bool relMatches(const PropertyGraph &G, RelHandle H, const CompiledRel &R) {
  if (R.Never || !((R.TypeMask >> G.relTypeOf(H)) & 1))
    return false;
  for (const PropFilter &F : R.Props)
    if (G.relPropId(H, F.first) != F.second)
      return false;
  return true;
}

/// A node's property as a WHERE operand: absent keys read as "" (id 0).
StrId operand(const PropertyGraph &G, NodeHandle H, uint32_t Key) {
  StrId V = Key == NoId ? NoStr : G.propId(H, Key);
  return V == NoStr ? 0 : V;
}

/// Evaluates one WHERE condition over a complete match.
bool holds(const PropertyGraph &G, const CompiledCond &C,
           const std::vector<NodeHandle> &Nodes,
           const std::vector<Path> &ItemPath) {
  bool Holds = false;
  switch (C.K) {
  case Condition::Kind::Compare: {
    StrId L = operand(G, Nodes[C.LHSSlot], C.LHSKey);
    StrId R = C.RHSIsLiteral ? C.RHSLiteral
                             : operand(G, Nodes[C.RHSSlot], C.RHSKey);
    Holds = C.NotEqual ? L != R : L == R;
    break;
  }
  case Condition::Kind::In:
    Holds = std::binary_search(C.Set.begin(), C.Set.end(),
                               operand(G, Nodes[C.LHSSlot], C.LHSKey));
    break;
  case Condition::Kind::PathPredicate:
    Holds = (*C.Pred)(ItemPath[C.PathItem], G);
    break;
  case Condition::Kind::Or:
    for (const CompiledCond &A : C.Alternatives)
      if ((Holds = holds(G, A, Nodes, ItemPath)))
        break;
    break;
  }
  return Holds != C.Negated;
}

} // namespace

bool QueryEngine::tick(MatchState &State) {
  ++State.Work;
  if (Options.WorkBudget != 0 && State.Work > Options.WorkBudget) {
    State.Aborted = true;
    return false;
  }
  // The scan-level deadline bounds the whole pipeline; one checkpoint per
  // matcher step, aborting with the rows found so far.
  if (Options.ScanDeadline && Options.ScanDeadline->checkpoint()) {
    State.Aborted = true;
    return false;
  }
  return true;
}

void QueryEngine::emitRow(MatchState &State, ResultSet &Out) {
  const Plan &P = *State.P;
  if (P.WhereNever)
    return;
  for (const CompiledCond &C : P.Where)
    if (!holds(G, C, State.Nodes, State.ItemPath))
      return;

  ResultRow Row;
  for (size_t S = 0; S < P.SlotNames.size(); ++S)
    Row.NodeBindings[P.SlotNames[S]] = State.Nodes[S];
  for (const auto &[Name, Item] : P.PathVars)
    Row.PathBindings[Name] = State.ItemPath[Item];
  for (const CompiledReturn &R : P.Returns) {
    switch (R.K) {
    case CompiledReturn::Kind::NodeId:
      Row.Values.push_back(std::to_string(State.Nodes[R.Slot]));
      break;
    case CompiledReturn::Kind::NodeProp: {
      StrId V = R.Key == NoId ? NoStr : G.propId(State.Nodes[R.Slot], R.Key);
      Row.Values.push_back(V == NoStr ? std::string() : G.str(V));
      break;
    }
    case CompiledReturn::Kind::Path:
      Row.Values.push_back(
          "path[" + std::to_string(State.ItemPath[R.PathItem].Rels.size()) +
          "]");
      break;
    case CompiledReturn::Kind::Missing:
      Row.Values.push_back("");
      break;
    }
  }
  if (P.Q->Distinct && !State.SeenRows.insert(Row.Values).second)
    return;
  Out.Rows.push_back(std::move(Row));
  if (Options.MaxRows != 0 && Out.Rows.size() >= Options.MaxRows)
    State.RowLimitHit = true;
  if (P.Q->Limit != 0 && Out.Rows.size() >= P.Q->Limit)
    State.RowLimitHit = true;
}

void QueryEngine::matchItem(size_t ItemIdx, MatchState &State,
                            ResultSet &Out) {
  if (State.Aborted || State.RowLimitHit)
    return;
  const Plan &P = *State.P;
  if (ItemIdx == P.Items.size()) {
    emitRow(State, Out);
    return;
  }
  const CompiledItem &M = P.Items[ItemIdx];
  const CompiledNode &First = M.Nodes[0];
  const size_t StepIdx = P.StepBase[ItemIdx];
  Profiler::Scope Step(State.Prof, StepIdx);

  auto StartWith = [&](NodeHandle H) {
    if (State.Prof)
      State.Prof->candidate(StepIdx);
    if (!nodeMatches(G, H, First))
      return;
    if (State.Prof)
      State.Prof->match(StepIdx);
    bool Bound = false;
    if (First.Slot != NoSlot && State.Nodes[First.Slot] == InvalidHandle) {
      State.Nodes[First.Slot] = H;
      Bound = true;
      ++State.Bindings;
    }
    Path &Current = State.ItemPath[ItemIdx];
    Current.Nodes.assign(1, H);
    Current.Rels.clear();
    matchChain(ItemIdx, 0, State, Out);
    if (Bound)
      State.Nodes[First.Slot] = InvalidHandle;
  };

  // Already-bound variable joins with the previous matches.
  if (First.Slot != NoSlot && State.Nodes[First.Slot] != InvalidHandle) {
    StartWith(State.Nodes[First.Slot]);
    return;
  }
  for (NodeHandle H : M.Scan) {
    if (State.Aborted || State.RowLimitHit)
      return;
    if (!tick(State))
      return;
    StartWith(H);
  }
}

void QueryEngine::matchChain(size_t ItemIdx, size_t NodeIdx,
                             MatchState &State, ResultSet &Out) {
  if (State.Aborted || State.RowLimitHit)
    return;
  const Plan &P = *State.P;
  const CompiledItem &M = P.Items[ItemIdx];
  if (NodeIdx == M.Rels.size()) {
    // Chain complete (its path variable, if any, reads ItemPath[ItemIdx]):
    // move to the next item.
    matchItem(ItemIdx + 1, State, Out);
    return;
  }

  Segment Seg;
  Seg.ItemIdx = ItemIdx;
  Seg.NodeIdx = NodeIdx;
  Seg.StepIdx = P.StepBase[ItemIdx] + NodeIdx + 1;
  Seg.Rel = &M.Rels[NodeIdx];
  Seg.Next = &M.Nodes[NodeIdx + 1];
  // DFS over hop sequences of length [MinHops, MaxHops]; relationships may
  // not repeat within one path (Cypher's relationship isomorphism). With a
  // registered path fold, (node, foldState) pairs are visited once per
  // segment walk — the planner-style pruning that keeps variable-length
  // matching polynomial.
  Seg.UseFold = Seg.Rel->VarLength && Fold_;
  Seg.Visited = &State.Visited[Seg.StepIdx];
  if (Seg.UseFold)
    Seg.Visited->reset();
  Profiler::Scope Step(State.Prof, Seg.StepIdx);
  walk(Seg, State, Out, State.ItemPath[ItemIdx].Nodes.back(), 0, 0);
}

void QueryEngine::walk(const Segment &Seg, MatchState &State, ResultSet &Out,
                       NodeHandle Cur, uint32_t Hops, int64_t FoldState) {
  if (State.Aborted || State.RowLimitHit)
    return;
  if (!tick(State))
    return;
  // Every walked endpoint is one candidate for this step (a `*0..` segment
  // can accept its start node with no extension at all, so counting
  // attempted extensions instead would undercount).
  if (State.Prof)
    State.Prof->candidate(Seg.StepIdx);
  const CompiledRel &R = *Seg.Rel;
  if (Hops >= R.MinHops && nodeMatches(G, Cur, *Seg.Next)) {
    // Accept this endpoint; bind the next node pattern variable.
    if (State.Prof)
      State.Prof->match(Seg.StepIdx);
    bool Bound = false;
    bool Compatible = true;
    if (Seg.Next->Slot != NoSlot) {
      NodeHandle &B = State.Nodes[Seg.Next->Slot];
      if (B != InvalidHandle) {
        Compatible = B == Cur;
      } else {
        B = Cur;
        Bound = true;
        ++State.Bindings;
      }
    }
    if (Compatible)
      matchChain(Seg.ItemIdx, Seg.NodeIdx + 1, State, Out);
    if (Bound)
      State.Nodes[Seg.Next->Slot] = InvalidHandle;
  }
  if (Hops >= R.MaxHops)
    return;
  // `<-[...]-` walks against edge direction: candidate relationships come
  // from the in-adjacency and continue at their From endpoint.
  Path &Current = State.ItemPath[Seg.ItemIdx];
  for (RelHandle RH : R.Reverse ? G.in(Cur) : G.out(Cur)) {
    if (!relMatches(G, RH, R))
      continue;
    if (std::find(Current.Rels.begin(), Current.Rels.end(), RH) !=
        Current.Rels.end())
      continue; // No repeated relationships within a path.
    NodeHandle Next = R.Reverse ? G.relFrom(RH) : G.relTo(RH);
    int64_t NextState = 0;
    if (Seg.UseFold) {
      NextState = Fold_(FoldState, RH);
      if (NextState < 0)
        continue; // Fold pruned this extension.
      if (!Seg.Visited->insert(Next, NextState))
        continue;
    }
    Current.Rels.push_back(RH);
    Current.Nodes.push_back(Next);
    walk(Seg, State, Out, Next, Hops + 1, NextState);
    Current.Nodes.pop_back();
    Current.Rels.pop_back();
    ++State.Backtracks;
  }
}

ResultSet QueryEngine::run(const Query &Q, QueryProfile *Profile) {
  Plan P;
  Compiler(G, Options, Predicates).compile(Q, P);
  ResultSet Out;
  MatchState State;
  State.P = &P;
  State.Nodes.assign(P.SlotNames.size(), InvalidHandle);
  State.ItemPath.resize(P.Items.size());
  State.Visited.resize(P.NumSteps);
  Profiler Prof;
  if (Profile) {
    *Profile = QueryProfile();
    Prof.start(Profile, Q, Options);
    State.Prof = &Prof;
  }
  auto Start = std::chrono::steady_clock::now();
  matchItem(0, State, Out);
  Out.TimedOut = State.Aborted;
  Out.Work = State.Work;
  if (Profile) {
    Prof.mark();
    Profile->TotalSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
            .count();
    Profile->Work = State.Work;
    Profile->Backtracks = State.Backtracks;
    Profile->Rows = Out.Rows.size();
    Profile->TimedOut = Out.TimedOut;
  }
  obs::counters::QuerySteps.add(State.Work);
  obs::counters::QueryBindings.add(State.Bindings);
  obs::counters::QueryBacktracks.add(State.Backtracks);
  obs::counters::QueryRows.add(Out.Rows.size());
  return Out;
}

ResultSet QueryEngine::run(const std::string &QueryText, std::string *Error,
                           QueryProfile *Profile) {
  Query Q;
  if (!parseQuery(QueryText, Q, Error))
    return ResultSet();
  return run(Q, Profile);
}
