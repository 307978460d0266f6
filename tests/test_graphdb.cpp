//===- tests/test_graphdb.cpp - Property graph + query engine tests -------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "graphdb/MDGImport.h"
#include "graphdb/QueryEngine.h"

#include <gtest/gtest.h>

using namespace gjs;
using namespace gjs::graphdb;

namespace {

/// A tiny fixture graph:
///   (a:Object {taint:'true'}) -D-> (b:Object) -D-> (c:Call {name:'exec'})
///   (a) -P {name:'x'}-> (d:Object)
PropertyGraph makeFixture() {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"taint", "true"}, {"label", "a"}});
  NodeHandle B = G.addNode("Object", {{"taint", "false"}, {"label", "b"}});
  NodeHandle C = G.addNode("Call", {{"name", "exec"}});
  NodeHandle D = G.addNode("Object", {{"label", "d"}});
  G.addRel(A, B, "D");
  G.addRel(B, C, "D");
  G.addRel(A, D, "P", {{"name", "x"}});
  G.freeze();
  return G;
}

} // namespace

TEST(PropertyGraphTest, StoresNodesAndRels) {
  PropertyGraph G = makeFixture();
  EXPECT_EQ(G.numNodes(), 4u);
  EXPECT_EQ(G.numRels(), 3u);
  EXPECT_EQ(G.prop(0, "label"), "a");
  EXPECT_EQ(G.prop(0, "missing"), "");
  EXPECT_EQ(G.nodesByLabel("Object").size(), 3u);
  EXPECT_EQ(G.nodesByLabel("Call").size(), 1u);
  EXPECT_EQ(G.nodesByLabel("").size(), 4u);
  EXPECT_EQ(G.out(0).size(), 2u);
  EXPECT_EQ(G.in(2).size(), 1u);
  EXPECT_EQ(G.relProp(2, "name"), "x");
}

TEST(QueryParserTest, ParsesBasicMatch) {
  Query Q;
  std::string Error;
  ASSERT_TRUE(parseQuery("MATCH (a:Object)-[:D]->(b:Call) RETURN a, b.name",
                         Q, &Error))
      << Error;
  ASSERT_EQ(Q.Matches.size(), 1u);
  EXPECT_EQ(Q.Matches[0].Nodes.size(), 2u);
  EXPECT_EQ(Q.Matches[0].Nodes[0].Var, "a");
  EXPECT_EQ(Q.Matches[0].Nodes[1].Label, "Call");
  ASSERT_EQ(Q.Returns.size(), 2u);
  EXPECT_EQ(Q.Returns[1].Key, "name");
}

TEST(QueryParserTest, ParsesVarLengthAndAlternation) {
  Query Q;
  std::string Error;
  ASSERT_TRUE(parseQuery(
      "MATCH p = (s:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(t:Call) "
      "WHERE NOT untainted(p) RETURN t LIMIT 5",
      Q, &Error))
      << Error;
  const RelPattern &R = Q.Matches[0].Rels[0];
  EXPECT_TRUE(R.VarLength);
  EXPECT_EQ(R.MinHops, 0u);
  EXPECT_TRUE(R.Unbounded);
  EXPECT_EQ(R.Types.size(), 5u);
  EXPECT_EQ(Q.Matches[0].PathVar, "p");
  ASSERT_EQ(Q.Where.size(), 1u);
  EXPECT_TRUE(Q.Where[0].Negated);
  EXPECT_EQ(Q.Where[0].PredName, "untainted");
  EXPECT_EQ(Q.Limit, 5u);
}

TEST(QueryParserTest, ParsesBoundedHops) {
  Query Q;
  ASSERT_TRUE(parseQuery("MATCH (a)-[*2..4]->(b) RETURN b", Q, nullptr));
  const RelPattern &R = Q.Matches[0].Rels[0];
  EXPECT_EQ(R.MinHops, 2u);
  EXPECT_EQ(R.MaxHops, 4u);
  EXPECT_FALSE(R.Unbounded);
}

TEST(QueryParserTest, RejectsMalformed) {
  Query Q;
  std::string Error;
  EXPECT_FALSE(parseQuery("MATCH (a RETURN a", Q, &Error));
  EXPECT_FALSE(parseQuery("MATCH (a) WHERE RETURN a", Q, &Error));
  EXPECT_FALSE(parseQuery("RETURN a", Q, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(QueryParserTest, UnclosedNodePatternReportsOffset) {
  Query Q;
  std::string Error;
  EXPECT_FALSE(parseQuery("MATCH (a:Object RETURN a", Q, &Error));
  EXPECT_NE(Error.find("offset"), std::string::npos) << Error;
}

TEST(QueryParserTest, BadHopRangeReportsOffset) {
  Query Q;
  std::string Error;
  // A single '.' is not a range separator ('..' required).
  EXPECT_FALSE(parseQuery("MATCH (a)-[:D*2.5]->(b) RETURN b", Q, &Error));
  EXPECT_NE(Error.find("offset"), std::string::npos) << Error;
}

TEST(QueryParserTest, StrayTrailingTokensRejected) {
  Query Q;
  std::string Error;
  EXPECT_FALSE(parseQuery("MATCH (a) RETURN a bogus trailing", Q, &Error));
  EXPECT_NE(Error.find("offset"), std::string::npos) << Error;
}

TEST(QueryEngineTest, SimpleMatchAndProjection) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R = E.run("MATCH (a:Object)-[:D]->(b:Object) RETURN a.label, "
                      "b.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "a");
  EXPECT_EQ(R.Rows[0].Values[1], "b");
}

TEST(QueryEngineTest, PropertyFilterInPattern) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R =
      E.run("MATCH (a:Object {taint: 'true'}) RETURN a.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "a");
}

TEST(QueryEngineTest, WhereComparisons) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R1 = E.run("MATCH (c:Call) WHERE c.name = 'exec' RETURN c");
  EXPECT_EQ(R1.Rows.size(), 1u);
  ResultSet R2 = E.run("MATCH (c:Call) WHERE c.name <> 'exec' RETURN c");
  EXPECT_EQ(R2.Rows.size(), 0u);
}

TEST(QueryEngineTest, VariableLengthReachability) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R = E.run(
      "MATCH (a:Object {taint: 'true'})-[:D*1..]->(c:Call) RETURN c.name");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "exec");
}

TEST(QueryEngineTest, ZeroHopMatchesSelf) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R =
      E.run("MATCH (a:Object {taint: 'true'})-[:D*0..]->(x:Object) RETURN "
            "x.label");
  // a itself (0 hops) and b (1 hop).
  EXPECT_EQ(R.Rows.size(), 2u);
}

TEST(QueryEngineTest, PathPredicateFiltering) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  E.registerPathPredicate("longerThanOne",
                          [](const Path &P, const PropertyGraph &) {
                            return P.Rels.size() > 1;
                          });
  ResultSet R = E.run("MATCH p = (a:Object {taint: 'true'})-[:D*1..]->(x) "
                      "WHERE longerThanOne(p) RETURN x");
  ASSERT_EQ(R.Rows.size(), 1u);
  // Only the 2-hop path to the call survives.
  EXPECT_EQ(G.label(R.Rows[0].NodeBindings.at("x")), "Call");
}

TEST(QueryEngineTest, MultiMatchJoin) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  // Same variable in two match items joins on the same node.
  ResultSet R = E.run("MATCH (a:Object {taint: 'true'})-[:D]->(b), "
                      "(a)-[:P]->(d) RETURN b.label, d.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "b");
  EXPECT_EQ(R.Rows[0].Values[1], "d");
}

TEST(QueryEngineTest, CyclesDoNotHang) {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"label", "a"}});
  NodeHandle B = G.addNode("Object", {{"label", "b"}});
  G.addRel(A, B, "D");
  G.addRel(B, A, "D");
  G.freeze();
  QueryEngine E(G);
  ResultSet R = E.run("MATCH (x:Object)-[:D*1..]->(y:Object) RETURN x, y");
  // a->b, a->b->a, b->a, b->a->b: 4 rows, finite.
  EXPECT_EQ(R.Rows.size(), 4u);
}

TEST(QueryEngineTest, WorkBudgetTimesOut) {
  // A dense graph with an unbounded query must hit the budget.
  PropertyGraph G;
  std::vector<NodeHandle> Ns;
  for (int I = 0; I < 12; ++I)
    Ns.push_back(G.addNode("Object"));
  for (NodeHandle X : Ns)
    for (NodeHandle Y : Ns)
      if (X != Y)
        G.addRel(X, Y, "D");
  G.freeze();
  EngineOptions O;
  O.WorkBudget = 500;
  QueryEngine E(G, O);
  ResultSet R = E.run("MATCH (a)-[:D*1..]->(b) RETURN a, b");
  EXPECT_TRUE(R.TimedOut);
}

TEST(QueryEngineTest, LimitStopsEarly) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R = E.run("MATCH (x:Object) RETURN x LIMIT 2");
  EXPECT_EQ(R.Rows.size(), 2u);
}

TEST(MDGImportTest, SchemaRoundTrip) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(
      "function f(a, k) { var o = {}; o[k] = a; g(o[k]); }\n"
      "module.exports = f;\n",
      Diags);
  auto Built = analysis::buildMDG(*Prog);
  ImportedMDG Imported = importMDG(Built.Graph, Built.Props);
  EXPECT_EQ(Imported.Graph.numNodes(), Built.Graph.numNodes());
  EXPECT_EQ(Imported.Graph.numRels(), Built.Graph.numEdges());

  QueryEngine E(Imported.Graph);
  // Taint sources present.
  ResultSet Sources =
      E.run("MATCH (s:Object {taint: 'true'}) RETURN s.label");
  EXPECT_EQ(Sources.Rows.size(), 2u);
  // The call node is reachable from the tainted param through the MDG.
  ResultSet R = E.run(
      "MATCH (s:Object {taint: 'true'})-[:D|P|PU|V|VU*1..]->(c:Call) "
      "RETURN c.name LIMIT 1");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "g");
}

//===----------------------------------------------------------------------===//
// Query-language extensions
//===----------------------------------------------------------------------===//

TEST(QueryEngineTest, RelationshipPropertyFilter) {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"label", "a"}});
  NodeHandle X = G.addNode("Object", {{"label", "x"}});
  NodeHandle Y = G.addNode("Object", {{"label", "y"}});
  G.addRel(A, X, "P", {{"name", "cmd"}});
  G.addRel(A, Y, "P", {{"name", "commit"}});
  G.freeze();
  QueryEngine E(G);
  ResultSet R =
      E.run("MATCH (a)-[:P {name: 'cmd'}]->(v) RETURN v.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "x");
}

TEST(QueryEngineTest, ReverseDirectionPattern) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  // Who flows *into* the call? Walk D edges backwards from it.
  ResultSet R =
      E.run("MATCH (c:Call)<-[:D]-(arg:Object) RETURN arg.label");
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_EQ(R.Rows[0].Values[0], "b");
}

TEST(QueryEngineTest, ReverseVariableLength) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  ResultSet R = E.run(
      "MATCH (c:Call)<-[:D*1..]-(src:Object {taint: 'true'}) RETURN src");
  EXPECT_EQ(R.Rows.size(), 1u);
}

TEST(QueryEngineTest, ReturnDistinctDeduplicates) {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"label", "a"}});
  NodeHandle B1 = G.addNode("Object", {{"label", "same"}});
  NodeHandle B2 = G.addNode("Object", {{"label", "same"}});
  G.addRel(A, B1, "D");
  G.addRel(A, B2, "D");
  G.freeze();
  QueryEngine E(G);
  ResultSet Plain = E.run("MATCH (a)-[:D]->(b) RETURN b.label");
  EXPECT_EQ(Plain.Rows.size(), 2u);
  ResultSet Distinct = E.run("MATCH (a)-[:D]->(b) RETURN DISTINCT b.label");
  EXPECT_EQ(Distinct.Rows.size(), 1u);
}

TEST(QueryParserTest, ParsesReverseAndRelProps) {
  Query Q;
  std::string Error;
  ASSERT_TRUE(parseQuery(
      "MATCH (a)<-[:V {name: 'x'}]-(b) RETURN DISTINCT a", Q, &Error))
      << Error;
  EXPECT_TRUE(Q.Matches[0].Rels[0].Reverse);
  EXPECT_EQ(Q.Matches[0].Rels[0].Props.at("name"), "x");
  EXPECT_TRUE(Q.Distinct);
}

//===----------------------------------------------------------------------===//
// Set membership and disjunction
//===----------------------------------------------------------------------===//

TEST(QueryParserTest, ParsesMembershipAndDisjunction) {
  Query Q;
  std::string Error;
  ASSERT_TRUE(parseQuery(
      "MATCH p = (a)-[:D*0..]->(c:Call) "
      "WHERE (c.name IN ['exec', 'spawn'] OR c.path IN ['fs.open']) "
      "AND NOT untainted(p) RETURN c",
      Q, &Error))
      << Error;
  ASSERT_EQ(Q.Where.size(), 2u);
  const Condition &Any = Q.Where[0];
  EXPECT_EQ(Any.K, Condition::Kind::Or);
  ASSERT_EQ(Any.Alternatives.size(), 2u);
  EXPECT_EQ(Any.Alternatives[0].K, Condition::Kind::In);
  EXPECT_EQ(Any.Alternatives[0].LHSKey, "name");
  EXPECT_EQ(Any.Alternatives[0].RHSList,
            (std::vector<std::string>{"exec", "spawn"}));
  EXPECT_EQ(Any.Alternatives[1].RHSList, (std::vector<std::string>{"fs.open"}));
  EXPECT_EQ(Q.Where[1].K, Condition::Kind::PathPredicate);
  EXPECT_TRUE(Q.Where[1].Negated);

  // A bare top-level OR chain is one disjunction.
  ASSERT_TRUE(parseQuery("MATCH (c:Call) WHERE c.name = 'a' OR c.name = 'b' "
                         "RETURN c",
                         Q = Query(), &Error))
      << Error;
  ASSERT_EQ(Q.Where.size(), 1u);
  EXPECT_EQ(Q.Where[0].Alternatives.size(), 2u);
}

TEST(QueryParserTest, RejectsUnparenthesizedAndOrAndEmptyList) {
  Query Q;
  std::string Error;
  EXPECT_FALSE(parseQuery(
      "MATCH (c:Call) WHERE c.name = 'a' AND c.line = '1' OR c.name = 'b' "
      "RETURN c",
      Q, &Error));
  EXPECT_NE(Error.find("parentheses"), std::string::npos) << Error;
  EXPECT_FALSE(parseQuery(
      "MATCH (c:Call) WHERE (c.name = 'a' AND c.line = '1') RETURN c", Q,
      &Error));
  EXPECT_FALSE(parseQuery("MATCH (c:Call) WHERE c.name IN [] RETURN c", Q,
                          &Error));
}

TEST(QueryEngineTest, MembershipAndDisjunctionFilterRows) {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object", {{"label", "a"}});
  for (const char *Name : {"exec", "spawn", "eval", "log"}) {
    NodeHandle C = G.addNode("Call", {{"name", Name}});
    G.addRel(A, C, "D");
  }
  G.freeze();
  QueryEngine E(G);
  ResultSet In = E.run(
      "MATCH (a)-[:D]->(c:Call) WHERE c.name IN ['exec', 'eval', 'nope'] "
      "RETURN c.name");
  ASSERT_EQ(In.Rows.size(), 2u);
  EXPECT_EQ(In.Rows[0].Values[0], "exec");
  EXPECT_EQ(In.Rows[1].Values[0], "eval");

  ResultSet Not = E.run("MATCH (a)-[:D]->(c:Call) WHERE NOT c.name IN "
                        "['exec', 'eval'] RETURN c.name");
  EXPECT_EQ(Not.Rows.size(), 2u);

  ResultSet Or = E.run("MATCH (a)-[:D]->(c:Call) WHERE c.name = 'log' OR "
                       "c.name IN ['spawn'] RETURN c.name");
  ASSERT_EQ(Or.Rows.size(), 2u);
  EXPECT_EQ(Or.Rows[0].Values[0], "spawn");
  EXPECT_EQ(Or.Rows[1].Values[0], "log");

  // The filter runs per complete match: the walk, and so Work, is the same
  // as without it.
  ResultSet All = E.run("MATCH (a)-[:D]->(c:Call) RETURN c.name");
  EXPECT_EQ(In.Work, All.Work);
}

TEST(QueryEngineTest, NamesTheGraphNeverStoredMatchNothing) {
  PropertyGraph G = makeFixture();
  QueryEngine E(G);
  EXPECT_TRUE(E.run("MATCH (x:Nope) RETURN x").Rows.empty());
  EXPECT_TRUE(E.run("MATCH (a)-[:NOPE]->(b) RETURN b").Rows.empty());
  EXPECT_TRUE(E.run("MATCH (a {nokey: 'x'}) RETURN a").Rows.empty());
  EXPECT_TRUE(E.run("MATCH (a {label: 'zzz'}) RETURN a").Rows.empty());
  EXPECT_TRUE(E.run("MATCH (a)-[:P {name: 'zzz'}]->(b) RETURN b").Rows.empty());
  // An alternation keeps its known types.
  EXPECT_EQ(E.run("MATCH (a)-[:NOPE|P]->(b) RETURN b").Rows.size(), 1u);
  // WHERE reads an absent property as ''.
  EXPECT_EQ(E.run("MATCH (c:Call) WHERE c.label = '' RETURN c").Rows.size(),
            1u);
  EXPECT_EQ(
      E.run("MATCH (c:Call) WHERE c.nokey IN ['', 'x'] RETURN c").Rows.size(),
      1u);
}

TEST(PropertyGraphTest, FreezeBuildsInsertionOrderedAdjacency) {
  PropertyGraph G;
  NodeHandle A = G.addNode("Object");
  NodeHandle B = G.addNode("Call");
  NodeHandle C = G.addNode("Object");
  RelHandle R0 = G.addRel(A, C, "D");
  RelHandle R1 = G.addRel(B, A, "V", {{"name", "x"}});
  RelHandle R2 = G.addRel(A, B, "P", {{"name", ""}});
  EXPECT_EQ(G.addRel(A, 99, "D"), InvalidHandle);
  G.freeze();
  ASSERT_EQ(G.out(A).size(), 2u);
  EXPECT_EQ(G.out(A)[0], R0);
  EXPECT_EQ(G.out(A)[1], R2);
  ASSERT_EQ(G.in(A).size(), 1u);
  EXPECT_EQ(G.in(A)[0], R1);
  EXPECT_TRUE(G.out(C).empty());
  EXPECT_EQ(G.relFrom(R1), B);
  EXPECT_EQ(G.relTo(R1), A);
  EXPECT_EQ(G.relType(R2), "P");
  // An empty value is stored; an absent one is not.
  uint32_t Name = G.relKeyId("name");
  EXPECT_EQ(G.relPropId(R2, Name), G.strId(""));
  EXPECT_EQ(G.relPropId(R0, Name), NoStr);
  EXPECT_EQ(G.nodesByLabel("Object").size(), 2u);
  EXPECT_TRUE(G.nodesByLabel("Nope").empty());
}
