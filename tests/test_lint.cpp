//===- tests/test_lint.cpp - Static validation subsystem tests ------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Covers the three pass families of `graphjs lint`: the Core IR verifier,
// the MDG well-formedness checker, and the query schema linter — each on
// clean pipeline output (no errors) and on manufactured violations (the
// expected finding appears).
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "core/Normalizer.h"
#include "graphdb/SchemaLint.h"
#include "lint/PassManager.h"
#include "queries/QueryRunner.h"
#include "scanner/Scanner.h"

#include <gtest/gtest.h>

using namespace gjs;
using namespace gjs::lint;
using core::Operand;
using core::Stmt;
using core::StmtKind;

namespace {

analysis::BuildResult buildFrom(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return analysis::buildMDG(*Prog);
}

LintResult runPass(std::unique_ptr<Pass> P, const LintContext &Ctx) {
  PassManager PM;
  PM.addPass(std::move(P));
  return PM.run(Ctx);
}

size_t countCheck(const LintResult &R, const std::string &Check) {
  size_t N = 0;
  for (const Finding &F : R.findings())
    if (F.Check == Check)
      ++N;
  return N;
}

std::string describeErrors(const LintResult &R) {
  std::string Out;
  for (const Finding &F : R.findings())
    if (F.Severity == DiagSeverity::Error)
      Out += F.str() + "\n";
  return Out;
}

core::StmtPtr makeStmt(StmtKind K, core::StmtIndex Index) {
  auto S = std::make_unique<Stmt>(K);
  S->Index = Index;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// IR verifier
//===----------------------------------------------------------------------===//

TEST(IRVerifierTest, NormalizerOutputIsClean) {
  // Exercises ternaries (same temp assigned in both If branches), loops
  // (fixpoint def semantics), nested functions, and exports.
  const char *Source =
      "function outer(a, b) {\n"
      "  var kind = a ? 'yes' : 'no';\n"
      "  function inner(x) { return x + kind; }\n"
      "  var total = 0;\n"
      "  for (var i = 0; i < b.length; i++) { total = total + b[i]; }\n"
      "  return inner(total);\n"
      "}\n"
      "module.exports = outer;\n";
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  LintContext Ctx;
  Ctx.Program = Prog.get();
  LintResult R = runPass(createIRVerifierPass(), Ctx);
  EXPECT_FALSE(R.hasErrors()) << describeErrors(R);
}

TEST(IRVerifierTest, UseBeforeDefDetected) {
  core::Program P;
  auto S = makeStmt(StmtKind::Assign, 1);
  S->Target = "x";
  S->Value = Operand::var("%t9"); // Never defined.
  P.TopLevel.push_back(std::move(S));
  LintContext Ctx;
  Ctx.Program = &P;
  LintResult R = runPass(createIRVerifierPass(), Ctx);
  EXPECT_TRUE(R.hasErrors());
  EXPECT_EQ(countCheck(R, "ir.use-before-def"), 1u);
}

TEST(IRVerifierTest, MultiAssignWarnsButTernaryJoinDoesNot) {
  // Straight-line double definition of the same temp: warning.
  core::Program P;
  for (core::StmtIndex I : {1u, 2u}) {
    auto S = makeStmt(StmtKind::Assign, I);
    S->Target = "%t1";
    S->Value = Operand::number(1);
    P.TopLevel.push_back(std::move(S));
  }
  LintContext Ctx;
  Ctx.Program = &P;
  LintResult R = runPass(createIRVerifierPass(), Ctx);
  EXPECT_EQ(countCheck(R, "ir.multi-assign"), 1u);

  // One definition per branch of the same `if` is the ternary join: clean.
  core::Program P2;
  auto If = makeStmt(StmtKind::If, 1);
  If->Cond = Operand::boolean(true);
  auto T = makeStmt(StmtKind::Assign, 2);
  T->Target = "%t1";
  T->Value = Operand::number(1);
  auto E = makeStmt(StmtKind::Assign, 3);
  E->Target = "%t1";
  E->Value = Operand::number(2);
  If->Then.push_back(std::move(T));
  If->Else.push_back(std::move(E));
  P2.TopLevel.push_back(std::move(If));
  LintContext Ctx2;
  Ctx2.Program = &P2;
  LintResult R2 = runPass(createIRVerifierPass(), Ctx2);
  EXPECT_EQ(countCheck(R2, "ir.multi-assign"), 0u);
}

TEST(IRVerifierTest, DuplicateAndZeroIndicesDetected) {
  core::Program P;
  P.TopLevel.push_back(makeStmt(StmtKind::NewObject, 7));
  P.TopLevel.push_back(makeStmt(StmtKind::NewObject, 7)); // Collision.
  P.TopLevel.push_back(makeStmt(StmtKind::NewObject, 0)); // Missing index.
  for (auto &S : P.TopLevel)
    S->Target = "o" + std::to_string(S->Index);
  LintContext Ctx;
  Ctx.Program = &P;
  LintResult R = runPass(createIRVerifierPass(), Ctx);
  EXPECT_EQ(countCheck(R, "ir.dup-index"), 1u);
  EXPECT_EQ(countCheck(R, "ir.zero-index"), 1u);
}

TEST(IRVerifierTest, DanglingExportDetected) {
  core::Program P;
  P.Exports.push_back({"main", "no_such_function"});
  LintContext Ctx;
  Ctx.Program = &P;
  LintResult R = runPass(createIRVerifierPass(), Ctx);
  EXPECT_EQ(countCheck(R, "ir.export-dangling"), 1u);
}

//===----------------------------------------------------------------------===//
// MDG checker
//===----------------------------------------------------------------------===//

TEST(MDGCheckerTest, BuiltGraphIsClean) {
  analysis::BuildResult B = buildFrom(
      "function f(a) { var o = {}; o.x = a; o.x = 'safe'; g(o.x); }\n"
      "module.exports = f;\n");
  LintContext Ctx;
  Ctx.Build = &B;
  LintResult R = runPass(createMDGCheckPass(), Ctx);
  EXPECT_FALSE(R.hasErrors()) << describeErrors(R);
}

TEST(MDGCheckerTest, LoopVersionCycleIsNoteNotError) {
  // §5.5: the site-reuse allocator folds loop iterations, so version
  // chains may legitimately be cyclic — a note, never an error.
  analysis::BuildResult B = buildFrom(
      "function set_value(target, prop, value) {\n"
      "  var obj = target;\n"
      "  for (var i = 0; i < 3; i++) { obj[prop] = value; obj = obj[prop]; }\n"
      "  return target;\n"
      "}\n"
      "module.exports = set_value;\n");
  LintContext Ctx;
  Ctx.Build = &B;
  LintResult R = runPass(createMDGCheckPass(), Ctx);
  EXPECT_FALSE(R.hasErrors()) << describeErrors(R);
}

TEST(MDGCheckerTest, ZeroPropertySymbolOnPEdgeFlagged) {
  analysis::BuildResult B;
  mdg::NodeId A = B.Graph.addNode(mdg::NodeKind::Object, 1, {});
  mdg::NodeId C = B.Graph.addNode(mdg::NodeKind::Object, 2, {});
  B.Graph.addEdge(A, C, mdg::EdgeKind::Prop, 0); // P edge without a name.
  LintContext Ctx;
  Ctx.Build = &B;
  LintResult R = runPass(createMDGCheckPass(), Ctx);
  EXPECT_EQ(countCheck(R, "mdg.edge-prop"), 1u);
  EXPECT_TRUE(R.hasErrors());
}

TEST(MDGCheckerTest, PropertySymbolOnDepEdgeFlagged) {
  analysis::BuildResult B;
  mdg::NodeId A = B.Graph.addNode(mdg::NodeKind::Object, 1, {});
  mdg::NodeId C = B.Graph.addNode(mdg::NodeKind::Object, 2, {});
  Symbol P = B.Props.intern("x");
  B.Graph.addEdge(A, C, mdg::EdgeKind::Dep, P); // D edges are unnamed.
  LintContext Ctx;
  Ctx.Build = &B;
  LintResult R = runPass(createMDGCheckPass(), Ctx);
  EXPECT_EQ(countCheck(R, "mdg.edge-prop"), 1u);
}

TEST(MDGCheckerTest, TaintFlagMismatchFlaggedBothWays) {
  analysis::BuildResult B;
  mdg::NodeId A = B.Graph.addNode(mdg::NodeKind::Object, 1, {});
  mdg::NodeId C = B.Graph.addNode(mdg::NodeKind::Object, 2, {});
  B.Graph.node(A).IsTaintSource = true; // Flagged but not listed.
  B.TaintSources.push_back(C);          // Listed but not flagged.
  LintContext Ctx;
  Ctx.Build = &B;
  LintResult R = runPass(createMDGCheckPass(), Ctx);
  EXPECT_EQ(countCheck(R, "mdg.taint-flag"), 2u);
}

TEST(MDGCheckerTest, CallArgWithoutDepEdgeFlagged) {
  analysis::BuildResult B;
  mdg::NodeId Arg = B.Graph.addNode(mdg::NodeKind::Object, 1, {});
  mdg::NodeId Call = B.Graph.addNode(mdg::NodeKind::Call, 2, {});
  B.Graph.node(Call).CallName = "exec";
  B.Graph.node(Call).Args = {{Arg}}; // Recorded arg, but no D edge.
  B.CallNodes.push_back(Call);
  LintContext Ctx;
  Ctx.Build = &B;
  LintResult R = runPass(createMDGCheckPass(), Ctx);
  EXPECT_EQ(countCheck(R, "mdg.call-arg"), 1u);

  // Adding the D edge the builder normally wires clears the finding.
  B.Graph.addEdge(Arg, Call, mdg::EdgeKind::Dep);
  LintResult R2 = runPass(createMDGCheckPass(), Ctx);
  EXPECT_EQ(countCheck(R2, "mdg.call-arg"), 0u);
}

TEST(MDGCheckerTest, CallNodeMissingFromListFlagged) {
  analysis::BuildResult B;
  mdg::NodeId Call = B.Graph.addNode(mdg::NodeKind::Call, 1, {});
  B.Graph.node(Call).CallName = "exec";
  // Not pushed into B.CallNodes.
  LintContext Ctx;
  Ctx.Build = &B;
  LintResult R = runPass(createMDGCheckPass(), Ctx);
  EXPECT_EQ(countCheck(R, "mdg.call-meta"), 1u);
}

//===----------------------------------------------------------------------===//
// Query schema linter
//===----------------------------------------------------------------------===//

namespace {

bool hasIssue(const std::vector<graphdb::SchemaIssue> &Issues,
              const std::string &Code) {
  for (const graphdb::SchemaIssue &I : Issues)
    if (I.Code == Code)
      return true;
  return false;
}

std::vector<graphdb::SchemaIssue> lintText(const std::string &Text) {
  return graphdb::lintQueryText(Text, graphdb::mdgSchema());
}

} // namespace

TEST(SchemaLintTest, TypoedEdgeLabelIsError) {
  auto Issues =
      lintText("MATCH (a:Object)-[:DD]->(b:Object) RETURN a, b");
  EXPECT_TRUE(hasIssue(Issues, "query.unknown-rel-type"));
  EXPECT_TRUE(graphdb::hasSchemaError(Issues));
}

TEST(SchemaLintTest, UnknownNodeLabelIsError) {
  auto Issues = lintText("MATCH (a:Objet) RETURN a");
  EXPECT_TRUE(hasIssue(Issues, "query.unknown-node-label"));
}

TEST(SchemaLintTest, UnsatisfiableHopBoundsIsError) {
  auto Issues = lintText("MATCH (a)-[:D*3..1]->(b) RETURN a, b");
  EXPECT_TRUE(hasIssue(Issues, "query.hop-bounds"));
}

TEST(SchemaLintTest, UnboundReturnVariableIsError) {
  auto Issues = lintText("MATCH (a:Object) RETURN c");
  EXPECT_TRUE(hasIssue(Issues, "query.unbound-var"));
}

TEST(SchemaLintTest, UnusedBindingIsWarningOnly) {
  auto Issues = lintText("MATCH (a:Object)-[:D]->(b:Object) RETURN a");
  EXPECT_TRUE(hasIssue(Issues, "query.unused-binding"));
  EXPECT_FALSE(graphdb::hasSchemaError(Issues));
}

TEST(SchemaLintTest, UnknownPropertyKeyIsWarning) {
  auto Issues = lintText("MATCH (a:Object) RETURN a.nosuchkey");
  EXPECT_TRUE(hasIssue(Issues, "query.unknown-prop-key"));
  EXPECT_FALSE(graphdb::hasSchemaError(Issues));
}

TEST(SchemaLintTest, WellFormedTaintQueryIsClean) {
  auto Issues = lintText(
      "MATCH p = (src:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(arg)"
      "-[:D]->(call:Call {name: 'exec'})\n"
      "WHERE NOT untainted(p)\nRETURN src, arg, call");
  EXPECT_TRUE(Issues.empty());
}

TEST(SchemaLintTest, MembershipTaintQueryIsClean) {
  auto Issues = lintText(
      "MATCH p = (src:Object {taint: 'true'})-[:D|P|PU|V|VU*0..]->(arg)"
      "-[:D]->(call:Call)\n"
      "WHERE (call.name IN ['exec'] OR call.path IN ['child_process.exec'])"
      " AND NOT untainted(p)\nRETURN src, arg, call");
  EXPECT_TRUE(Issues.empty());
}

TEST(SchemaLintTest, UnknownKeyInMembershipIsError) {
  // A membership test on a key the importer never emits reads '' for every
  // node and can never match a sink: unlike a plain RETURN read, an error.
  auto Issues = lintText(
      "MATCH p = (src:Object {taint: 'true'})-[:D*0..]->(arg)"
      "-[:D]->(call:Call)\n"
      "WHERE (call.nmae IN ['exec'] OR call.path IN ['child_process.exec'])"
      " AND NOT untainted(p)\nRETURN src, arg, call");
  EXPECT_TRUE(hasIssue(Issues, "query.unknown-in-key"));
  EXPECT_TRUE(graphdb::hasSchemaError(Issues));
}

TEST(SchemaLintTest, UnboundVariableInsideDisjunctionIsError) {
  auto Issues = lintText("MATCH (c:Call) WHERE c.name = 'exec' OR "
                         "d.name IN ['eval'] RETURN c");
  EXPECT_TRUE(hasIssue(Issues, "query.unbound-var"));
}

TEST(SchemaLintTest, BuiltinQueriesValidateCleanly) {
  // The acceptance gate: every Table 2 query instantiated from the default
  // sink config must pass the schema linter.
  std::string Error;
  EXPECT_TRUE(queries::GraphDBRunner::validateBuiltinQueries(
      queries::SinkConfig::defaults(), &Error))
      << Error;
  // One query per vulnerability class.
  EXPECT_EQ(queries::GraphDBRunner::builtinQueries(
                queries::SinkConfig::defaults())
                .size(),
            4u);
}

TEST(SchemaLintTest, TypoedBuiltinTemplateFailsValidation) {
  // Simulates seeding a typo into a Table 2 template: the same linter that
  // guards startup must reject it with a positioned, named diagnostic.
  auto Issues = lintText(
      "MATCH p = (src:Object {taint: 'true'})-[:D|P|PU|V|VUU*0..]->(arg)"
      "-[:D]->(call:Call {name: 'exec'})\n"
      "WHERE NOT untainted(p)\nRETURN src, arg, call");
  EXPECT_TRUE(hasIssue(Issues, "query.unknown-rel-type"));
  EXPECT_TRUE(graphdb::hasSchemaError(Issues));
}

//===----------------------------------------------------------------------===//
// Pass manager integration
//===----------------------------------------------------------------------===//

TEST(PassManagerTest, StandardPipelineOnFullContext) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(
      "function f(a) { var o = {}; o.x = a; g(o.x); }\n"
      "module.exports = f;\n",
      Diags);
  ASSERT_FALSE(Diags.hasErrors());
  analysis::BuildResult B = analysis::buildMDG(*Prog);
  queries::SinkConfig Sinks = queries::SinkConfig::defaults();

  LintContext Ctx;
  Ctx.Program = Prog.get();
  Ctx.Build = &B;
  Ctx.Sinks = &Sinks;
  LintResult R = PassManager::standard().run(Ctx);
  EXPECT_FALSE(R.hasErrors()) << describeErrors(R);
}

TEST(PassManagerTest, ExtraQueryWithTypoProducesErrorFinding) {
  LintContext Ctx;
  Ctx.ExtraQueries.push_back(
      "MATCH (a:Object)-[:DD]->(b:Object) RETURN a, b");
  LintResult R = runPass(createQuerySchemaPass(), Ctx);
  EXPECT_TRUE(R.hasErrors());
  EXPECT_EQ(countCheck(R, "query.unknown-rel-type"), 1u);
}

TEST(PassManagerTest, FindingsRenderAsJSON) {
  LintContext Ctx;
  Ctx.ExtraQueries.push_back("MATCH (a:Objet) RETURN a");
  LintResult R = runPass(createQuerySchemaPass(), Ctx);
  ASSERT_TRUE(R.hasErrors());
  std::string J = R.renderJSON();
  EXPECT_NE(J.find("\"findings\""), std::string::npos);
  EXPECT_NE(J.find("query.unknown-node-label"), std::string::npos);
  EXPECT_NE(J.find("\"errors\""), std::string::npos);
}

TEST(PassManagerTest, FindingsMirrorIntoDiagnostics) {
  LintContext Ctx;
  Ctx.ExtraQueries.push_back("MATCH (a:Objet) RETURN a");
  LintResult R = runPass(createQuerySchemaPass(), Ctx);
  DiagnosticEngine Diags;
  R.toDiagnostics(Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_NE(Diags.str().find("query-schema/query.unknown-node-label"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Scanner SelfCheck mode
//===----------------------------------------------------------------------===//

TEST(ScannerSelfCheckTest, CleanScanHasNoSchemaErrorAndNoSelfCheckErrors) {
  scanner::ScanOptions O;
  O.SelfCheck = true;
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(
      "const { exec } = require('child_process');\n"
      "function run(cmd) { exec(cmd); }\n"
      "module.exports = run;\n");
  EXPECT_FALSE(R.parseFailed());
  EXPECT_TRUE(R.SchemaError.empty()) << R.SchemaError;
  for (const Finding &F : R.SelfCheckFindings)
    EXPECT_NE(F.Severity, DiagSeverity::Error) << F.str();
  EXPECT_FALSE(R.Reports.empty()); // The CWE-78 is still found.
}
