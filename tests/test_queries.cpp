//===- tests/test_queries.cpp - Vulnerability query tests -----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
// Exercises Table 1 traversals and Table 2 detectors on the paper's
// examples, and cross-validates the graph-database backend against the
// native traversals.
//
//===----------------------------------------------------------------------===//

#include "analysis/MDGBuilder.h"
#include "core/AsyncLower.h"
#include "core/Normalizer.h"
#include "eval/Harness.h"
#include "obs/Counters.h"
#include "queries/QueryRunner.h"
#include "scanner/Scanner.h"
#include "workload/Packages.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace gjs;
using namespace gjs::queries;

namespace {

analysis::BuildResult buildFrom(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return analysis::buildMDG(*Prog);
}

bool hasType(const std::vector<VulnReport> &Reports, VulnType T) {
  return std::any_of(Reports.begin(), Reports.end(),
                     [&](const VulnReport &R) { return R.Type == T; });
}

const char *Figure1Source =
    "const { exec } = require('child_process');\n"
    "function git_reset(config, op, branch_name, url) {\n"
    "  var options = config[op];\n"
    "  options[branch_name] = url;\n"
    "  options.cmd = 'git reset';\n"
    "  exec(options.cmd + ' HEAD~' + options.commit);\n"
    "}\n"
    "module.exports = git_reset;\n";

} // namespace

//===----------------------------------------------------------------------===//
// Sink configuration
//===----------------------------------------------------------------------===//

TEST(SinkConfigTest, DefaultsCoverPaperSinks) {
  SinkConfig C = SinkConfig::defaults();
  auto Has = [&](VulnType T, const std::string &Name) {
    for (const SinkSpec &S : C.sinks(T))
      if (S.Name == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has(VulnType::CommandInjection, "exec"));
  EXPECT_TRUE(Has(VulnType::CommandInjection, "child_process.spawn"));
  EXPECT_TRUE(Has(VulnType::CodeInjection, "eval"));
  EXPECT_TRUE(Has(VulnType::CodeInjection, "require"));
  EXPECT_TRUE(Has(VulnType::PathTraversal, "fs.readFile"));
}

TEST(SinkConfigTest, LoadsFromJSON) {
  SinkConfig C;
  std::string Error;
  ASSERT_TRUE(SinkConfig::fromJSON(
      R"({"command-injection": [{"name": "mylib.run", "args": [1]}]})", C,
      &Error))
      << Error;
  ASSERT_EQ(C.sinks(VulnType::CommandInjection).size(), 1u);
  const SinkSpec &S = C.sinks(VulnType::CommandInjection)[0];
  EXPECT_EQ(S.Name, "mylib.run");
  EXPECT_TRUE(S.isPath());
  EXPECT_FALSE(SinkConfig::argIsSensitive(S, 0));
  EXPECT_TRUE(SinkConfig::argIsSensitive(S, 1));
}

TEST(SinkConfigTest, RejectsBadJSON) {
  SinkConfig C;
  std::string Error;
  EXPECT_FALSE(SinkConfig::fromJSON("[1,2]", C, &Error));
  EXPECT_FALSE(SinkConfig::fromJSON(R"({"nope": []})", C, &Error));
  EXPECT_FALSE(
      SinkConfig::fromJSON(R"({"command-injection": [{}]})", C, &Error));
}

//===----------------------------------------------------------------------===//
// Native traversals (Table 1)
//===----------------------------------------------------------------------===//

TEST(TraversalsTest, TaintPathRespectsOverwrite) {
  // o.x = tainted; o.x = 'safe'; read o.x  — the classic UntaintedPath.
  auto Build = buildFrom(
      "function f(a) { var o = {}; o.x = a; o.x = 'safe'; g(o.x); }\n"
      "module.exports = f;\n");
  Traversals T(Build.Graph);
  ASSERT_EQ(Build.TaintSources.size(), 1u);
  mdg::NodeId Src = Build.TaintSources[0];
  // The call argument must NOT be taint-reachable.
  mdg::NodeId Call = mdg::InvalidNode;
  for (mdg::NodeId C : Build.CallNodes)
    if (Build.Graph.node(C).CallName == "g")
      Call = C;
  ASSERT_NE(Call, mdg::InvalidNode);
  std::set<mdg::NodeId> Reach = T.taintReachable(Src);
  const mdg::Node &CN = Build.Graph.node(Call);
  ASSERT_EQ(CN.Args.size(), 1u);
  for (mdg::NodeId A : CN.Args[0])
    EXPECT_FALSE(Reach.count(A))
        << "overwritten property still tainted (UntaintedPath violated)";
}

TEST(TraversalsTest, BasicPathExistsWhereTaintPathExcluded) {
  // When the tainted *object* has a property overwritten with a safe
  // literal, the path src -V(x)-> v -P(x)-> safe exists as a BasicPath but
  // matches UntaintedPath, so TaintPath must exclude it (Table 1).
  auto Build = buildFrom("function f(a) { a.x = 'safe'; g(a.x); }\n"
                         "module.exports = f;\n");
  Traversals T(Build.Graph);
  ASSERT_EQ(Build.TaintSources.size(), 1u);
  mdg::NodeId Src = Build.TaintSources[0];
  mdg::NodeId Call = Build.CallNodes.back();
  const mdg::Node &CN = Build.Graph.node(Call);
  ASSERT_EQ(CN.Args.size(), 1u);
  std::set<mdg::NodeId> Reach = T.taintReachable(Src);
  bool AnyBasic = false, AnyTaint = false;
  for (mdg::NodeId A : CN.Args[0]) {
    AnyBasic |= T.basicPathExists(Src, A);
    AnyTaint |= Reach.count(A) != 0;
  }
  EXPECT_TRUE(AnyBasic) << "BasicPath through the version chain must exist";
  EXPECT_FALSE(AnyTaint) << "TaintPath must exclude the overwritten read";
}

TEST(TraversalsTest, TaintSurvivesDifferentPropertyOverwrite) {
  auto Build = buildFrom(
      "function f(a) { var o = {}; o.x = a; o.y = 'safe'; g(o.x); }\n"
      "module.exports = f;\n");
  Traversals T(Build.Graph);
  std::set<mdg::NodeId> Reach = T.taintReachable(Build.TaintSources[0]);
  mdg::NodeId Call = Build.CallNodes.back();
  const mdg::Node &CN = Build.Graph.node(Call);
  bool Tainted = false;
  for (mdg::NodeId A : CN.Args[0])
    Tainted |= Reach.count(A) != 0;
  EXPECT_TRUE(Tainted);
}

TEST(TraversalsTest, ObjLookupAndAssignmentStar) {
  auto Build = buildFrom(
      "function merge(obj, k1, k2, v) { var c = obj[k1]; c[k2] = v; }\n"
      "module.exports = merge;\n");
  Traversals T(Build.Graph);
  auto Lookups = T.objLookupStar();
  ASSERT_FALSE(Lookups.empty());
  bool FoundAssignment = false;
  for (auto [Obj, Sub] : Lookups) {
    (void)Obj;
    if (!T.objAssignmentStar(Sub).empty())
      FoundAssignment = true;
  }
  EXPECT_TRUE(FoundAssignment);
}

//===----------------------------------------------------------------------===//
// Table 2 detectors — paper examples
//===----------------------------------------------------------------------===//

TEST(DetectorTest, Figure1CommandInjection) {
  auto Build = buildFrom(Figure1Source);
  SinkConfig C = SinkConfig::defaults();

  std::vector<VulnReport> Native = detectNative(Build, C);
  EXPECT_TRUE(hasType(Native, VulnType::CommandInjection));

  GraphDBRunner Runner(Build);
  std::vector<VulnReport> Db = Runner.detect(C);
  EXPECT_TRUE(hasType(Db, VulnType::CommandInjection));

  // The sink line must point at the exec call (line 6).
  for (const VulnReport &R : Db)
    if (R.Type == VulnType::CommandInjection)
      EXPECT_EQ(R.SinkLoc.Line, 6u);
}

TEST(DetectorTest, Figure1PrototypePollution) {
  auto Build = buildFrom(Figure1Source);
  SinkConfig C = SinkConfig::defaults();
  std::vector<VulnReport> Native = detectNative(Build, C);
  EXPECT_TRUE(hasType(Native, VulnType::PrototypePollution));
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(hasType(Runner.detect(C), VulnType::PrototypePollution));
}

TEST(DetectorTest, SetValueCaseStudyPollution) {
  auto Build = buildFrom(
      "function set_value(target, prop, value) {\n"
      "  const path = prop.split('.');\n"
      "  const len = path.length;\n"
      "  var obj = target;\n"
      "  for (var i = 0; i < len; i++) {\n"
      "    const p = path[i];\n"
      "    if (i === len - 1) {\n"
      "      obj[p] = value;\n"
      "    }\n"
      "    obj = obj[p];\n"
      "  }\n"
      "  return target;\n"
      "}\n"
      "module.exports = set_value;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_TRUE(hasType(detectNative(Build, C), VulnType::PrototypePollution));
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(hasType(Runner.detect(C), VulnType::PrototypePollution));
}

TEST(DetectorTest, CodeInjectionThroughEval) {
  auto Build = buildFrom("function run(code) { eval('(' + code + ')'); }\n"
                         "module.exports = run;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_TRUE(hasType(detectNative(Build, C), VulnType::CodeInjection));
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(hasType(Runner.detect(C), VulnType::CodeInjection));
}

TEST(DetectorTest, PathTraversalThroughFsReadFile) {
  auto Build = buildFrom(
      "var fs = require('fs');\n"
      "function read(name, cb) { fs.readFile('/data/' + name, cb); }\n"
      "module.exports = read;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_TRUE(hasType(detectNative(Build, C), VulnType::PathTraversal));
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(hasType(Runner.detect(C), VulnType::PathTraversal));
}

TEST(DetectorTest, BenignCodeProducesNoReports) {
  auto Build = buildFrom(
      "var cp = require('child_process');\n"
      "function ok(x) { var n = 1 + 2; cp.exec('git status'); return x; }\n"
      "module.exports = ok;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_TRUE(detectNative(Build, C).empty());
  GraphDBRunner Runner(Build);
  EXPECT_TRUE(Runner.detect(C).empty());
}

TEST(DetectorTest, SanitizedByOverwriteIsNotReported) {
  auto Build = buildFrom(
      "var cp = require('child_process');\n"
      "function f(a) {\n"
      "  var o = {};\n"
      "  o.cmd = a;\n"
      "  o.cmd = 'git status';\n"
      "  cp.exec(o.cmd);\n"
      "}\n"
      "module.exports = f;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_FALSE(hasType(detectNative(Build, C), VulnType::CommandInjection));
  GraphDBRunner Runner(Build);
  EXPECT_FALSE(hasType(Runner.detect(C), VulnType::CommandInjection));
}

TEST(DetectorTest, NonSensitiveArgumentIsNotReported) {
  // Only argument 0 of exec is sensitive; a tainted callback (arg 1) is
  // not a command injection.
  auto Build = buildFrom(
      "var cp = require('child_process');\n"
      "function f(cb) { cp.exec('ls', cb); }\n"
      "module.exports = f;\n");
  SinkConfig C = SinkConfig::defaults();
  EXPECT_FALSE(hasType(detectNative(Build, C), VulnType::CommandInjection));
  GraphDBRunner Runner(Build);
  EXPECT_FALSE(hasType(Runner.detect(C), VulnType::CommandInjection));
}

//===----------------------------------------------------------------------===//
// Backend cross-validation
//===----------------------------------------------------------------------===//

class BackendAgreement : public ::testing::TestWithParam<const char *> {};

TEST_P(BackendAgreement, NativeAndGraphDBAgree) {
  auto Build = buildFrom(GetParam());
  SinkConfig C = SinkConfig::defaults();
  std::vector<VulnReport> Native = detectNative(Build, C);
  GraphDBRunner Runner(Build);
  std::vector<VulnReport> Db = Runner.detect(C);
  std::sort(Native.begin(), Native.end());
  std::sort(Db.begin(), Db.end());
  EXPECT_EQ(Native, Db) << "backends disagree on:\n" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BackendAgreement,
    ::testing::Values(
        "const { exec } = require('child_process');\n"
        "function f(c) { exec(c); }\nmodule.exports = f;\n",
        "function f(a) { var o = {}; o.x = a; eval(o.x); }\n"
        "module.exports = f;\n",
        "function merge(o, k1, k2, v) { var c = o[k1]; c[k2] = v; }\n"
        "module.exports = merge;\n",
        "var fs = require('fs');\n"
        "function f(p) { fs.readFileSync(p); }\nmodule.exports = f;\n",
        "function safe(x) { return x + 1; }\nmodule.exports = safe;\n",
        "function f(a) { var o = {}; o.c = a; o.c = 'x'; "
        "require('child_process').exec(o.c); }\nmodule.exports = f;\n"));

//===----------------------------------------------------------------------===//
// Scanner pipeline
//===----------------------------------------------------------------------===//

TEST(ScannerTest, EndToEndFigure1) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanSource(Figure1Source);
  EXPECT_FALSE(R.parseFailed());
  EXPECT_FALSE(R.timedOut());
  EXPECT_TRUE(R.Errors.empty());
  EXPECT_TRUE(hasType(R.Reports, VulnType::CommandInjection));
  EXPECT_TRUE(hasType(R.Reports, VulnType::PrototypePollution));
  EXPECT_GT(R.MDGNodes, 0u);
  EXPECT_GT(R.MDGEdges, 0u);
  EXPECT_GT(R.ASTNodes, 0u);
  EXPECT_GE(R.Times.total(), 0.0);
}

TEST(ScannerTest, ParseFailureIsReported) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanSource("function ( { ]");
  EXPECT_TRUE(R.parseFailed());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_EQ(R.Errors[0].Phase, scanner::ScanPhase::Parse);
  EXPECT_EQ(R.Errors[0].Kind, scanner::ScanErrorKind::ParseError);
  EXPECT_TRUE(R.Reports.empty());
}

TEST(ScannerTest, MultiFilePackageMergesReports) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanPackage(
      {{"a.js", "function f(c) { eval(c); }\nmodule.exports = f;\n"},
       {"b.js", "var cp = require('child_process');\n"
                "function g(c) { cp.exec(c); }\nmodule.exports = g;\n"}});
  EXPECT_TRUE(hasType(R.Reports, VulnType::CodeInjection));
  EXPECT_TRUE(hasType(R.Reports, VulnType::CommandInjection));
}

TEST(ScannerTest, NativeBackendOption) {
  scanner::ScanOptions O;
  O.Backend = scanner::QueryBackend::Native;
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(Figure1Source);
  EXPECT_TRUE(hasType(R.Reports, VulnType::CommandInjection));
}

TEST(ScannerTest, ReportsSerializeToJSON) {
  scanner::Scanner S;
  scanner::ScanResult R = S.scanSource(Figure1Source);
  std::string J = scanner::reportsToJSON(R.Reports);
  EXPECT_NE(J.find("CWE-78"), std::string::npos);
  EXPECT_NE(J.find("\"line\""), std::string::npos);
}

TEST(ScannerTest, WorkBudgetProducesTimeout) {
  scanner::ScanOptions O;
  O.Builder.WorkBudget = 3;
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(Figure1Source);
  EXPECT_TRUE(R.timedOut());
  EXPECT_TRUE(R.timedOutIn(scanner::ScanPhase::Build));
  const scanner::ScanError *First = R.firstTimeout();
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->Kind, scanner::ScanErrorKind::Budget);
}

//===----------------------------------------------------------------------===//
// Sanitizer configuration (§6)
//===----------------------------------------------------------------------===//

TEST(SanitizerTest, ConfiguredSanitizerBreaksTaint) {
  const char *Source =
      "var cp = require('child_process');\n"
      "function f(c, cb) {\n"
      "  var safe = escapeShell(c);\n"
      "  cp.exec('git ' + safe, cb);\n"
      "}\n"
      "module.exports = f;\n";

  // Without the sanitizer declared: reported.
  scanner::Scanner Plain;
  scanner::ScanResult R1 = Plain.scanSource(Source);
  EXPECT_TRUE(hasType(R1.Reports, VulnType::CommandInjection));

  // With it declared: the barrier stops the flow.
  scanner::ScanOptions O;
  O.Sinks.addSanitizer("escapeShell");
  scanner::Scanner S(O);
  scanner::ScanResult R2 = S.scanSource(Source);
  EXPECT_FALSE(hasType(R2.Reports, VulnType::CommandInjection));
}

TEST(SanitizerTest, DottedSanitizerPathMatches) {
  const char *Source =
      "var sh = require('shell-escape');\n"
      "function f(c, cb) {\n"
      "  var safe = sh.quote(c);\n"
      "  require('child_process').exec(safe, cb);\n"
      "}\n"
      "module.exports = f;\n";
  scanner::ScanOptions O;
  O.Sinks.addSanitizer("shell-escape.quote");
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(Source);
  EXPECT_FALSE(hasType(R.Reports, VulnType::CommandInjection));
}

TEST(SanitizerTest, SanitizersLoadFromJSON) {
  SinkConfig C;
  std::string Error;
  ASSERT_TRUE(SinkConfig::fromJSON(
      R"({"sanitizers": ["escapeShell", "lib.clean"],
          "command-injection": [{"name": "run", "args": [0]}]})",
      C, &Error))
      << Error;
  ASSERT_EQ(C.sanitizers().size(), 2u);
  EXPECT_EQ(C.sanitizers()[0], "escapeShell");
  EXPECT_EQ(C.sinks(VulnType::CommandInjection).size(), 1u);
}

TEST(SanitizerTest, OtherFlowsStayReported) {
  // Sanitizing one flow must not hide an unrelated one.
  const char *Source =
      "var cp = require('child_process');\n"
      "function f(a, b, cb) {\n"
      "  cp.exec('ls ' + escapeShell(a), cb);\n"
      "  cp.exec('rm ' + b, cb);\n"
      "}\n"
      "module.exports = f;\n";
  scanner::ScanOptions O;
  O.Sinks.addSanitizer("escapeShell");
  scanner::Scanner S(O);
  scanner::ScanResult R = S.scanSource(Source);
  ASSERT_EQ(R.Reports.size(), 1u);
  EXPECT_EQ(R.Reports[0].SinkLoc.Line, 4u);
}

//===----------------------------------------------------------------------===//
// Query-engine goldens and the per-class vs. per-sink differential
//===----------------------------------------------------------------------===//
//
// The corpus: examples/js plus a fixed slice of the workload generator's
// single-file taint, prototype-pollution, sanitized and async shapes, built
// with the evaluation budgets (eval::HarnessOptions::defaults()).

#if defined(GJS_EXAMPLES_JS_DIR) && defined(GJS_QUERY_GOLDENS)

namespace {

struct CorpusInput {
  std::string Name;
  std::string Source;
};

std::vector<CorpusInput> queryCorpus() {
  std::vector<CorpusInput> Out;
  std::vector<std::filesystem::path> Examples;
  for (const auto &E : std::filesystem::directory_iterator(GJS_EXAMPLES_JS_DIR))
    if (E.path().extension() == ".js")
      Examples.push_back(E.path());
  std::sort(Examples.begin(), Examples.end());
  for (const std::filesystem::path &P : Examples) {
    std::ifstream In(P);
    std::ostringstream SS;
    SS << In.rdbuf();
    Out.push_back({"examples/" + P.filename().string(), SS.str()});
  }

  workload::PackageGenerator Gen(2024);
  auto Add = [&](const workload::Package &P) {
    if (P.Files.size() == 1) // Multi-file shapes need the package linker.
      Out.push_back({P.Name, P.Files[0].Contents});
  };
  for (VulnType T : {VulnType::CommandInjection, VulnType::CodeInjection,
                     VulnType::PathTraversal, VulnType::PrototypePollution}) {
    for (workload::Complexity C :
         {workload::Complexity::Direct, workload::Complexity::Wrapped,
          workload::Complexity::Loop, workload::Complexity::Recursive})
      Add(Gen.vulnerable(T, C, workload::VariantKind::Plain, 30));
    Add(Gen.vulnerable(T, workload::Complexity::Wrapped,
                       workload::VariantKind::Sanitized, 30));
  }
  for (workload::AsyncForm F :
       {workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
        workload::AsyncForm::PromiseExecutor,
        workload::AsyncForm::ErrorFirstCallback}) {
    Add(Gen.asyncVulnerable(F, 30));
    Add(Gen.asyncBenign(F, 30));
  }
  // The vuln_large shape whose pollution query exhausts the step budget:
  // budget truncation must cut every engine off at the same step.
  workload::PackageGenerator Heavy(2025);
  Add(Heavy.vulnerable(VulnType::PrototypePollution,
                       workload::Complexity::Recursive,
                       workload::VariantKind::Plain, 1000));
  return Out;
}

analysis::BuildResult buildBudgeted(const std::string &Source) {
  DiagnosticEngine Diags;
  auto Prog = core::normalizeJS(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  core::lowerAsync(*Prog);
  return analysis::buildMDG(*Prog,
                            eval::HarnessOptions::defaults().Scan.Builder);
}

/// The Table 2 taint template instantiated for one sink: the shape each
/// class query is the union of.
std::string perSinkQuery(const SinkSpec &Spec) {
  return std::string("MATCH p = (src:Object {taint: 'true'})"
                     "-[:D|P|PU|V|VU*0..]->(arg)-[:D]->(call:Call {") +
         (Spec.isPath() ? "path" : "name") + ": '" + Spec.Name +
         "'})\nWHERE NOT untainted(p)\nRETURN src, arg, call";
}

std::string pollutionQuery() {
  for (const auto &[Name, Text] :
       GraphDBRunner::builtinQueries(SinkConfig::defaults()))
    if (Name == "prototype-pollution")
      return Text;
  ADD_FAILURE() << "no prototype-pollution built-in";
  return "";
}

/// One query's golden record: its cost counters and every projected row.
std::string goldenRecord(GraphDBRunner &Runner, const std::string &Label,
                         const std::string &Text) {
  bool Prev = obs::setCountersEnabled(true);
  uint64_t Before = obs::counters::QueryBacktracks.value();
  std::string Error;
  graphdb::ResultSet R = Runner.runQuery(Text, &Error);
  uint64_t Backtracks = obs::counters::QueryBacktracks.value() - Before;
  obs::setCountersEnabled(Prev);
  EXPECT_TRUE(Error.empty()) << Label << ": " << Error;
  std::string Out = "query " + Label + " work=" + std::to_string(R.Work) +
                    " backtracks=" + std::to_string(Backtracks) +
                    " timedout=" + (R.TimedOut ? "1" : "0") +
                    " rows=" + std::to_string(R.Rows.size()) + "\n";
  for (const graphdb::ResultRow &Row : R.Rows) {
    Out += " ";
    for (const std::string &V : Row.Values)
      Out += " " + V;
    Out += "\n";
  }
  return Out;
}

/// The golden block of one corpus input: the pollution query and two
/// single-sink taint queries (a bare-name sink and a dotted-path sink).
std::string goldenBlock(const CorpusInput &In) {
  analysis::BuildResult Build = buildBudgeted(In.Source);
  GraphDBRunner Runner(Build, eval::HarnessOptions::defaults().Scan.Engine);
  std::string Out = "input " + In.Name + "\n";
  Out += goldenRecord(Runner, "prototype-pollution", pollutionQuery());
  Out += goldenRecord(Runner, "command-injection/exec",
                      perSinkQuery({"exec", {0}}));
  Out += goldenRecord(Runner, "path-traversal/fs.readFileSync",
                      perSinkQuery({"fs.readFileSync", {0}}));
  return Out;
}

/// Splits a golden file into per-input blocks keyed by input name.
std::map<std::string, std::string> goldenBlocks(const std::string &Text) {
  std::map<std::string, std::string> Out;
  std::string Current;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("input ", 0) == 0)
      Current = Line.substr(6);
    Out[Current] += Line + "\n";
  }
  return Out;
}

} // namespace

// Rows, Work and Backtracks of the pollution query and of single-sink
// taint queries, as the engine computed them before its store was frozen
// and interned. The golden file is fixed test data.
TEST(QueryGoldenTest, EngineReproducesRecordedRowsWorkAndBacktracks) {
  std::vector<CorpusInput> Corpus = queryCorpus();
  ASSERT_GE(Corpus.size(), 20u);
  std::ifstream In(GJS_QUERY_GOLDENS);
  ASSERT_TRUE(In) << "missing " << GJS_QUERY_GOLDENS;
  std::ostringstream SS;
  SS << In.rdbuf();
  std::map<std::string, std::string> Golden = goldenBlocks(SS.str());
  ASSERT_EQ(Golden.size(), Corpus.size());
  for (const CorpusInput &Input : Corpus) {
    ASSERT_TRUE(Golden.count(Input.Name)) << Input.Name;
    EXPECT_EQ(goldenBlock(Input), Golden[Input.Name]) << Input.Name;
  }
}

namespace {

/// Checks every taint class of one input against the union of its per-sink
/// template runs; returns the number of class reports.
size_t expectClassEqualsUnion(const CorpusInput &Input,
                              graphdb::EngineOptions Engine) {
  SinkConfig Config = SinkConfig::defaults();
  analysis::BuildResult Build = buildBudgeted(Input.Source);
  GraphDBRunner Runner(Build, Engine);
  size_t Reported = 0;
  for (VulnType T : {VulnType::CommandInjection, VulnType::CodeInjection,
                     VulnType::PathTraversal}) {
    std::string Where = Input.Name + " " + vulnTypeName(T);
    std::vector<VulnReport> Union;
    std::set<VulnReport> Seen;
    uint64_t SinkWork = 0;
    bool SinkTimedOut = false;
    for (const SinkSpec &Spec : Config.sinks(T)) {
      std::string Error;
      graphdb::ResultSet R = Runner.runQuery(perSinkQuery(Spec), &Error);
      EXPECT_TRUE(Error.empty()) << Error;
      SinkWork = R.Work;
      SinkTimedOut = R.TimedOut;
      for (const graphdb::ResultRow &Row : R.Rows) {
        const mdg::Node &CN = Build.Graph.node(Row.NodeBindings.at("call"));
        mdg::NodeId Arg = Row.NodeBindings.at("arg");
        bool Sensitive = false;
        for (unsigned I = 0; I < CN.Args.size() && !Sensitive; ++I)
          Sensitive = SinkConfig::argIsSensitive(Spec, I) &&
                      std::find(CN.Args[I].begin(), CN.Args[I].end(), Arg) !=
                          CN.Args[I].end();
        if (!Sensitive)
          continue;
        VulnReport Rep;
        Rep.Type = T;
        Rep.SinkLoc = CN.Loc;
        Rep.SinkName = CN.CallName;
        Rep.SinkPath = CN.CallPath;
        if (Seen.insert(Rep).second)
          Union.push_back(std::move(Rep));
      }
    }
    DetectStats Stats;
    std::vector<VulnReport> Class = Runner.detectTaintStyle(T, Config, &Stats);
    EXPECT_EQ(Class, Union) << Where;
    EXPECT_EQ(Stats.QueryWork, SinkWork) << Where;
    EXPECT_EQ(Stats.TimedOut, SinkTimedOut) << Where;
    Reported += Class.size();
  }
  return Reported;
}

} // namespace

// Each class's detectTaintStyle equals the union of the per-sink template
// runs: same reports in the same order, with the sensitive-argument filter
// of each run's sink applied, the same Work as any single per-sink run, and
// the same budget verdict.
TEST(QueryGoldenTest, ClassQueryEqualsUnionOfPerSinkRuns) {
  std::vector<CorpusInput> Corpus = queryCorpus();
  size_t Reported = 0;
  for (const CorpusInput &Input : Corpus)
    Reported += expectClassEqualsUnion(
        Input, eval::HarnessOptions::defaults().Scan.Engine);
  EXPECT_GE(Reported, 10u) << "the corpus must exercise the taint classes";

  // A budget that cuts the larger taint walks short: the class query
  // truncates where every per-sink run does, with the rows found so far.
  graphdb::EngineOptions Tight = eval::HarnessOptions::defaults().Scan.Engine;
  Tight.WorkBudget = 400;
  for (const CorpusInput &Input : Corpus)
    expectClassEqualsUnion(Input, Tight);
}

#endif // GJS_EXAMPLES_JS_DIR && GJS_QUERY_GOLDENS
