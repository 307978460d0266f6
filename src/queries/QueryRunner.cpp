//===- queries/QueryRunner.cpp - Table 2 vulnerability queries -------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "queries/QueryRunner.h"

#include "graphdb/SchemaLint.h"
#include "obs/Trace.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

using namespace gjs;
using namespace gjs::queries;
using namespace gjs::mdg;
using graphdb::Path;
using graphdb::PropertyGraph;
using graphdb::QueryEngine;
using graphdb::ResultRow;
using graphdb::ResultSet;

GraphDBRunner::GraphDBRunner(const analysis::BuildResult &Build,
                             graphdb::EngineOptions Engine,
                             bool UntaintedExclusion)
    : Build(Build), Imported(graphdb::importMDG(Build.Graph, Build.Props,
                                                Engine.ScanDeadline)),
      EngineOpts(Engine), UntaintedExclusion(UntaintedExclusion),
      Engine_(Imported.Graph, Engine) {
  registerPredicates(Engine_);
}

namespace {

/// The `untainted` path fold over interned property-name sets: state S is
/// the sorted set States[S] of names overwritten so far (V edges), and a
/// read of one of them (P edge) is pruned. V-edge transitions are memoized
/// per (state, name id).
class UntaintedFold {
public:
  explicit UntaintedFold(const PropertyGraph &G)
      : G(G), V(G.relTypeId("V")), P(G.relTypeId("P")),
        Name(G.relKeyId("name")) {
    States.emplace_back();
    Index[{}] = 0;
  }

  int64_t operator()(int64_t S, graphdb::RelHandle R) {
    uint32_t Type = G.relTypeOf(R);
    if ((Type != V && Type != P) || Name == graphdb::NoId)
      return S;
    graphdb::StrId N = G.relPropId(R, Name);
    if (N == graphdb::NoStr)
      return S;
    if (Type == P) {
      const std::vector<graphdb::StrId> &Cur = States[static_cast<size_t>(S)];
      // Overwritten property: prune the untainted extension.
      return std::binary_search(Cur.begin(), Cur.end(), N) ? -1 : S;
    }
    uint64_t Key = (static_cast<uint64_t>(S) << 32) | N;
    auto It = Steps.find(Key);
    if (It != Steps.end())
      return It->second;
    std::vector<graphdb::StrId> Next = States[static_cast<size_t>(S)];
    auto Pos = std::lower_bound(Next.begin(), Next.end(), N);
    if (Pos == Next.end() || *Pos != N)
      Next.insert(Pos, N);
    auto [SIt, Fresh] =
        Index.emplace(std::move(Next), static_cast<int64_t>(States.size()));
    if (Fresh)
      States.push_back(SIt->first);
    Steps.emplace(Key, SIt->second);
    return SIt->second;
  }

private:
  const PropertyGraph &G;
  uint32_t V, P, Name;
  std::vector<std::vector<graphdb::StrId>> States;
  std::map<std::vector<graphdb::StrId>, int64_t> Index;
  std::unordered_map<uint64_t, int64_t> Steps;
};

} // namespace

void GraphDBRunner::registerPredicates(QueryEngine &E) const {
  if (!UntaintedExclusion) {
    // Ablated mode: `untainted(p)` is constant-false (TaintPath becomes
    // BasicPath) and no pruning fold is installed.
    E.registerPathPredicate(
        "untainted",
        [](const Path &, const PropertyGraph &) { return false; });
    // A coarse reachability fold still prunes revisits (state 0 always).
    E.setPathFold([](int64_t, graphdb::RelHandle) -> int64_t { return 0; });
    return;
  }
  // UntaintedPath (Table 1): the path contains V(p) followed, anywhere
  // later, by P(p) on the same property: the tainted value was overwritten.
  const PropertyGraph &G = Imported.Graph;
  uint32_t V = G.relTypeId("V"), P = G.relTypeId("P");
  uint32_t Name = G.relKeyId("name");
  E.registerPathPredicate(
      "untainted", [V, P, Name](const Path &Pa, const PropertyGraph &G) {
        if (Name == graphdb::NoId)
          return false;
        std::vector<graphdb::StrId> Overwritten;
        for (graphdb::RelHandle RH : Pa.Rels) {
          uint32_t Type = G.relTypeOf(RH);
          graphdb::StrId N = G.relPropId(RH, Name);
          if (N == graphdb::NoStr)
            continue;
          if (Type == V)
            Overwritten.push_back(N);
          else if (Type == P && std::find(Overwritten.begin(),
                                          Overwritten.end(),
                                          N) != Overwritten.end())
            return true;
        }
        return false;
      });

  // Path-state fold for planner-style pruning, consistent with the
  // `untainted` predicate: every surviving path satisfies NOT untainted.
  E.setPathFold(UntaintedFold(G));
}

namespace {

/// Quotes a sink name as a query string literal.
std::string quoted(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "'";
}

std::string quotedList(const std::vector<std::string> &Names) {
  std::string Out = "[";
  for (size_t I = 0; I < Names.size(); ++I)
    Out += (I ? ", " : "") + quoted(Names[I]);
  return Out + "]";
}

/// The Table 2 taint template for one vulnerability class: a tainted value
/// reaches an argument of a call whose bare name or dotted path is one of
/// the class's sinks. One traversal serves every sink of the class; the
/// host applies each sink's sensitive-argument filter to the rows.
std::string taintClassQuery(const std::vector<SinkSpec> &Specs) {
  std::vector<std::string> Names, Paths;
  for (const SinkSpec &S : Specs)
    (S.isPath() ? Paths : Names).push_back(S.Name);
  std::string Sinks;
  if (!Names.empty())
    Sinks = "call.name IN " + quotedList(Names);
  if (!Paths.empty())
    Sinks += (Sinks.empty() ? "" : " OR ") + std::string("call.path IN ") +
             quotedList(Paths);
  if (!Names.empty() && !Paths.empty())
    Sinks = "(" + Sinks + ")";
  return "MATCH p = (src:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(arg)"
         "-[:D]->(call:Call)\n"
         "WHERE " + Sinks + " AND NOT untainted(p)\n"
         "RETURN src, arg, call";
}

// The taint-source endpoints of p1..p3 are anonymous: naming them would
// bind variables the query never reads (the schema linter flags that).
const char *PollutionQuery =
    "MATCH (obj:Object)-[:PU]->(sub:Object)-[:VU]->(ver:Object)"
    "-[:PU]->(val:Object),\n"
    "  p1 = (:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(sub),\n"
    "  p2 = (:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(ver),\n"
    "  p3 = (:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(val)\n"
    "WHERE NOT untainted(p1) AND NOT untainted(p2) AND NOT untainted(p3)\n"
    "RETURN obj, sub, ver, val";

constexpr VulnType TaintClasses[] = {VulnType::CommandInjection,
                                     VulnType::CodeInjection,
                                     VulnType::PathTraversal};

} // namespace

const graphdb::Query *GraphDBRunner::parsed(const std::string &Text,
                                            std::string *Error) {
  auto It = Parsed.find(Text);
  if (It != Parsed.end())
    return &It->second;
  graphdb::Query Q;
  if (!graphdb::parseQuery(Text, Q, Error))
    return nullptr;
  return &Parsed.emplace(Text, std::move(Q)).first->second;
}

std::vector<VulnReport>
GraphDBRunner::detectTaintStyle(VulnType T, const SinkConfig &Config,
                                DetectStats *Stats) {
  const std::vector<SinkSpec> &Specs = Config.sinks(T);
  if (Specs.empty())
    return {};
  // Built-in texts are schema-validated before any scan runs.
  const graphdb::Query *Q = parsed(taintClassQuery(Specs), nullptr);
  if (!Q)
    return {};
  obs::Span QSpan(EngineOpts.Trace, vulnTypeName(T));
  ResultSet R = Engine_.run(*Q);
  QSpan.arg("rows", static_cast<uint64_t>(R.Rows.size()));
  QSpan.arg("work", R.Work);
  QSpan.close();
  if (Stats) {
    Stats->QueryWork += R.Work;
    Stats->TimedOut |= R.TimedOut;
  }

  // Host-side Arg_{f,n} filter: the matched arg must be one of a matching
  // sink's sensitive argument positions. A row is credited to the first
  // such sink in config order, and the buckets are concatenated in that
  // order — the report order of one query per sink.
  std::vector<std::vector<VulnReport>> BySink(Specs.size());
  for (const ResultRow &Row : R.Rows) {
    const Node &CN = Build.Graph.node(Row.NodeBindings.at("call"));
    NodeId Arg = Row.NodeBindings.at("arg");
    for (size_t S = 0; S < Specs.size(); ++S) {
      if (!SinkConfig::matchesCall(Specs[S], CN.CallName, CN.CallPath))
        continue;
      bool Sensitive = false;
      for (unsigned I = 0; I < CN.Args.size() && !Sensitive; ++I)
        Sensitive = SinkConfig::argIsSensitive(Specs[S], I) &&
                    std::find(CN.Args[I].begin(), CN.Args[I].end(), Arg) !=
                        CN.Args[I].end();
      if (!Sensitive)
        continue;
      VulnReport Rep;
      Rep.Type = T;
      Rep.SinkLoc = CN.Loc;
      Rep.SinkName = CN.CallName;
      Rep.SinkPath = CN.CallPath;
      BySink[S].push_back(std::move(Rep));
      break;
    }
  }
  std::vector<VulnReport> Reports;
  std::set<VulnReport> Dedup;
  for (std::vector<VulnReport> &Bucket : BySink)
    for (VulnReport &Rep : Bucket)
      if (Dedup.insert(Rep).second)
        Reports.push_back(std::move(Rep));
  return Reports;
}

std::vector<std::pair<std::string, std::string>>
GraphDBRunner::builtinQueries(const SinkConfig &Config) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (VulnType T : TaintClasses)
    if (!Config.sinks(T).empty())
      Out.emplace_back(vulnTypeName(T), taintClassQuery(Config.sinks(T)));
  Out.emplace_back("prototype-pollution", PollutionQuery);
  return Out;
}

bool GraphDBRunner::validateBuiltinQueries(const SinkConfig &Config,
                                           std::string *Error) {
  const graphdb::GraphSchema &Schema = graphdb::mdgSchema();
  for (const auto &[Name, Text] : builtinQueries(Config)) {
    for (const graphdb::SchemaIssue &Issue :
         graphdb::lintQueryText(Text, Schema)) {
      if (Issue.Severity != DiagSeverity::Error)
        continue;
      if (Error)
        *Error = "built-in query '" + Name + "': " + Issue.str();
      return false;
    }
  }
  return true;
}

std::vector<VulnReport>
GraphDBRunner::detectPrototypePollution(DetectStats *Stats) {
  const graphdb::Query *Q = parsed(PollutionQuery, nullptr);
  if (!Q)
    return {};
  obs::Span QSpan(EngineOpts.Trace, "prototype-pollution");
  ResultSet R = Engine_.run(*Q);
  QSpan.arg("rows", static_cast<uint64_t>(R.Rows.size()));
  QSpan.arg("work", R.Work);
  QSpan.close();
  if (Stats) {
    Stats->QueryWork += R.Work;
    Stats->TimedOut |= R.TimedOut;
  }

  std::vector<VulnReport> Reports;
  std::set<VulnReport> Dedup;
  for (const ResultRow &Row : R.Rows) {
    NodeId Ver = Row.NodeBindings.at("ver");
    VulnReport Rep;
    Rep.Type = VulnType::PrototypePollution;
    Rep.SinkLoc = Build.Graph.node(Ver).Loc;
    if (Dedup.insert(Rep).second)
      Reports.push_back(std::move(Rep));
  }
  return Reports;
}

graphdb::ResultSet GraphDBRunner::runQuery(const std::string &Text,
                                           std::string *Error,
                                           graphdb::QueryProfile *Profile) {
  const graphdb::Query *Q = parsed(Text, Error);
  if (!Q)
    return ResultSet();
  return Engine_.run(*Q, Profile);
}

std::vector<std::pair<std::string, graphdb::QueryProfile>>
GraphDBRunner::profileBuiltins(const SinkConfig &Config) {
  std::vector<std::pair<std::string, graphdb::QueryProfile>> Out;
  for (const auto &[Name, Text] : builtinQueries(Config)) {
    graphdb::QueryProfile P;
    std::string Error;
    runQuery(Text, &Error, &P);
    Out.emplace_back(Name, std::move(P));
  }
  return Out;
}

std::vector<VulnReport> GraphDBRunner::detect(const SinkConfig &Config,
                                              DetectStats *Stats) {
  std::array<bool, NumVulnTypes> All;
  All.fill(true);
  return detect(Config, Stats, All);
}

std::vector<VulnReport>
GraphDBRunner::detect(const SinkConfig &Config, DetectStats *Stats,
                      const std::array<bool, NumVulnTypes> &Enabled) {
  std::vector<VulnReport> All;
  for (VulnType T : TaintClasses) {
    if (!Enabled[static_cast<int>(T)])
      continue;
    std::vector<VulnReport> R = detectTaintStyle(T, Config, Stats);
    All.insert(All.end(), R.begin(), R.end());
  }
  if (Enabled[static_cast<int>(VulnType::PrototypePollution)]) {
    std::vector<VulnReport> PP = detectPrototypePollution(Stats);
    All.insert(All.end(), PP.begin(), PP.end());
  }
  return All;
}

//===----------------------------------------------------------------------===//
// Native backend
//===----------------------------------------------------------------------===//

std::vector<VulnReport> queries::detectNative(
    const analysis::BuildResult &Build, const SinkConfig &Config) {
  std::array<bool, NumVulnTypes> All;
  All.fill(true);
  return detectNative(Build, Config, All);
}

std::vector<VulnReport> queries::detectNative(
    const analysis::BuildResult &Build, const SinkConfig &Config,
    const std::array<bool, NumVulnTypes> &Enabled) {
  const Graph &G = Build.Graph;
  Traversals T(G);

  // Precompute the taint closure of every source once.
  std::set<NodeId> Tainted;
  for (NodeId S : Build.TaintSources) {
    std::set<NodeId> R = T.taintReachable(S);
    Tainted.insert(R.begin(), R.end());
  }

  std::vector<VulnReport> Reports;
  std::set<VulnReport> Dedup;

  // Taint-style classes: tainted value reaches a sensitive sink argument.
  for (VulnType VT : {VulnType::CommandInjection, VulnType::CodeInjection,
                      VulnType::PathTraversal}) {
    if (!Enabled[static_cast<int>(VT)])
      continue;
    for (const SinkSpec &Spec : Config.sinks(VT)) {
      for (NodeId C : Build.CallNodes) {
        const Node &CN = G.node(C);
        if (!SinkConfig::matchesCall(Spec, CN.CallName, CN.CallPath))
          continue;
        bool Hit = false;
        for (unsigned I = 0; I < CN.Args.size() && !Hit; ++I) {
          if (!SinkConfig::argIsSensitive(Spec, I))
            continue;
          for (NodeId A : CN.Args[I])
            if (Tainted.count(A)) {
              Hit = true;
              break;
            }
        }
        if (!Hit)
          continue;
        VulnReport Rep;
        Rep.Type = VT;
        Rep.SinkLoc = CN.Loc;
        Rep.SinkName = CN.CallName;
        Rep.SinkPath = CN.CallPath;
        if (Dedup.insert(Rep).second)
          Reports.push_back(std::move(Rep));
      }
    }
  }

  // Prototype pollution: ObjLookup* ∘ ObjAssignment* with all three
  // controlled positions tainted (Table 2, last row).
  if (!Enabled[static_cast<int>(VulnType::PrototypePollution)])
    return Reports;
  for (auto [Obj, Sub] : T.objLookupStar()) {
    (void)Obj;
    if (!Tainted.count(Sub))
      continue;
    for (auto [Ver, Val] : T.objAssignmentStar(Sub)) {
      if (!Tainted.count(Ver) || !Tainted.count(Val))
        continue;
      VulnReport Rep;
      Rep.Type = VulnType::PrototypePollution;
      Rep.SinkLoc = G.node(Ver).Loc;
      if (Dedup.insert(Rep).second)
        Reports.push_back(std::move(Rep));
    }
  }
  return Reports;
}
