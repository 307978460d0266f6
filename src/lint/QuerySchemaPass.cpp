//===- lint/QuerySchemaPass.cpp - Query schema lint pass -------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
//
// Wraps graphdb's schema linter (SchemaLint.h) as a validation pass: every
// built-in Table 2 query instantiated from the sink configuration (one per
// vulnerability class), plus any ad-hoc query texts in the context, is
// checked against the MDG import schema. Finding codes come straight from the schema linter
// ("query.unknown-rel-type", "query.hop-bounds", ...).
//
//===----------------------------------------------------------------------===//

#include "graphdb/SchemaLint.h"
#include "lint/PassManager.h"
#include "queries/QueryRunner.h"
#include "queries/SinkConfig.h"

using namespace gjs;
using namespace gjs::lint;

namespace {

class QuerySchemaPass : public Pass {
public:
  const char *name() const override { return "query-schema"; }

  void run(const LintContext &Ctx, LintResult &Out) override {
    const graphdb::GraphSchema &Schema = graphdb::mdgSchema();

    // Built-in Table 2 queries: always lint them when a sink config is in
    // play; the defaults otherwise. A broken built-in must never scan.
    queries::SinkConfig Defaults = queries::SinkConfig::defaults();
    const queries::SinkConfig &Sinks = Ctx.Sinks ? *Ctx.Sinks : Defaults;
    for (const auto &[Name, Text] :
         queries::GraphDBRunner::builtinQueries(Sinks))
      lintOne("built-in query '" + Name + "'", Text, Schema, Out);

    unsigned I = 0;
    for (const std::string &Text : Ctx.ExtraQueries)
      lintOne("query #" + std::to_string(++I), Text, Schema, Out);
  }

private:
  void lintOne(const std::string &Label, const std::string &Text,
               const graphdb::GraphSchema &Schema, LintResult &Out) {
    for (const graphdb::SchemaIssue &Issue :
         graphdb::lintQueryText(Text, Schema)) {
      Finding F;
      F.Severity = Issue.Severity;
      F.Pass = name();
      F.Check = Issue.Code;
      F.Message = Label + ": " + Issue.Message;
      Out.add(std::move(F));
    }
  }
};

} // namespace

std::unique_ptr<Pass> lint::createQuerySchemaPass() {
  return std::make_unique<QuerySchemaPass>();
}
