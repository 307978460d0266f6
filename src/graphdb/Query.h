//===- graphdb/Query.h - Query language AST ----------------------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the Cypher-like query language (the stand-in for the 80 lines of
/// Cypher the paper's Graph.js runs against Neo4j). Supported grammar:
///
///   query     := MATCH matchItem (',' matchItem)*
///                (WHERE where)?
///                RETURN DISTINCT? item (',' item)* (LIMIT int)?
///   matchItem := (pathVar '=')? nodePat (relPat nodePat)*
///   nodePat   := '(' var? (':' Label)? ('{' key ':' str (',' ...)* '}')? ')'
///   relPat    := '-[' var? (':' Type ('|' Type)*)? ('*' int? '..' int?)? ']->'
///   where     := cond (AND cond)* | cond (OR cond)+
///   cond      := NOT? '(' cond (OR cond)* ')'   — parenthesized disjunction
///              | NOT? atom
///   atom      := operand ('=' | '<>') operand
///              | var '.' key IN '[' str (',' str)* ']'  — set membership
///              | predName '(' var ')'          — registered path predicate
///   operand   := var '.' key | string literal
///
/// AND and OR do not mix without parentheses: `a AND (b OR c)` parses,
/// `a AND b OR c` is an error.
///   item      := var | var '.' key
///
//===----------------------------------------------------------------------===//

#ifndef GJS_GRAPHDB_QUERY_H
#define GJS_GRAPHDB_QUERY_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gjs {
namespace graphdb {

/// A node pattern like `(src:Object {taint: 'true'})`.
struct NodePattern {
  std::string Var;   // "" for anonymous.
  std::string Label; // "" for any.
  std::map<std::string, std::string> Props;
};

/// A relationship pattern like `-[:D|P*0..]->`, `-[:P {name: 'cmd'}]->`,
/// or the reverse form `<-[:D]-`.
struct RelPattern {
  std::string Var;
  std::vector<std::string> Types; // Empty = any type.
  std::map<std::string, std::string> Props; // Relationship properties.
  bool VarLength = false;
  uint32_t MinHops = 1;
  uint32_t MaxHops = 1; // Ignored when Unbounded.
  bool Unbounded = false;
  bool Reverse = false; // `<-[...]-`: traverse against edge direction.
};

/// One MATCH chain: nodes and the relationships between them.
struct MatchItem {
  std::string PathVar; // "" when the path is not named.
  std::vector<NodePattern> Nodes;
  std::vector<RelPattern> Rels; // Rels.size() == Nodes.size() - 1.
};

/// A WHERE condition.
struct Condition {
  enum class Kind {
    Compare,       ///< lhsVar.lhsKey (=|<>) rhs (literal or var.key)
    In,            ///< lhsVar.lhsKey IN [literal, ...]
    PathPredicate, ///< name(pathVar)
    Or,            ///< Alternatives[0] OR Alternatives[1] OR ...
  };
  Kind K = Kind::Compare;
  bool Negated = false;

  // Compare and In:
  std::string LHSVar, LHSKey;
  bool RHSIsLiteral = true;
  std::string RHSLiteral;
  std::string RHSVar, RHSKey;
  bool NotEqual = false;

  // In:
  std::vector<std::string> RHSList;

  // PathPredicate:
  std::string PredName;
  std::string PredArg;

  // Or:
  std::vector<Condition> Alternatives;
};

/// A RETURN item.
struct ReturnItem {
  std::string Var;
  std::string Key; // "" = the whole node/path (its id is returned).
};

/// A parsed query.
struct Query {
  std::vector<MatchItem> Matches;
  std::vector<Condition> Where;
  std::vector<ReturnItem> Returns;
  bool Distinct = false; // RETURN DISTINCT deduplicates projected rows.
  uint64_t Limit = 0;    // 0 = unlimited.
};

/// Parses query text. Returns false and sets \p Error on malformed input.
bool parseQuery(const std::string &Text, Query &Out, std::string *Error);

} // namespace graphdb
} // namespace gjs

#endif // GJS_GRAPHDB_QUERY_H
