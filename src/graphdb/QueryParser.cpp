//===- graphdb/QueryParser.cpp - Query language parser ---------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/Query.h"

#include <cctype>

using namespace gjs;
using namespace gjs::graphdb;

namespace {

/// Hand-rolled tokenizer + recursive-descent parser for the query grammar.
class QueryParser {
public:
  explicit QueryParser(const std::string &Text) : Text(Text) {}

  bool parse(Query &Out, std::string *Error) {
    bool Ok = parseQueryBody(Out);
    if (!Ok && Error)
      *Error = Err.empty() ? "malformed query" : Err;
    return Ok;
  }

private:
  const std::string &Text;
  size_t Pos = 0;
  std::string Err;

  bool fail(const std::string &Message) {
    if (Err.empty())
      Err = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWS() {
    while (Pos < Text.size() &&
           (std::isspace(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '\n'))
      ++Pos;
    // Line comments: // ... end of line.
    if (Pos + 1 < Text.size() && Text[Pos] == '/' && Text[Pos + 1] == '/') {
      while (Pos < Text.size() && Text[Pos] != '\n')
        ++Pos;
      skipWS();
    }
  }

  char peek() {
    skipWS();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  bool consume(char C) {
    if (peek() != C)
      return fail(std::string("expected '") + C + "'");
    ++Pos;
    return true;
  }

  bool tryConsume(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }

  /// Case-insensitive keyword lookahead.
  bool peekKeyword(const char *KW) {
    skipWS();
    size_t Len = std::char_traits<char>::length(KW);
    if (Pos + Len > Text.size())
      return false;
    for (size_t I = 0; I < Len; ++I)
      if (std::toupper(static_cast<unsigned char>(Text[Pos + I])) != KW[I])
        return false;
    // Must not continue as identifier.
    if (Pos + Len < Text.size() &&
        (std::isalnum(static_cast<unsigned char>(Text[Pos + Len])) ||
         Text[Pos + Len] == '_'))
      return false;
    return true;
  }

  bool consumeKeyword(const char *KW) {
    if (!peekKeyword(KW))
      return fail(std::string("expected keyword ") + KW);
    Pos += std::char_traits<char>::length(KW);
    return true;
  }

  std::string ident() {
    skipWS();
    std::string Out;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '$'))
      Out += Text[Pos++];
    return Out;
  }

  bool stringLiteral(std::string &Out) {
    skipWS();
    char Quote = peek();
    if (Quote != '\'' && Quote != '"')
      return fail("expected string literal");
    ++Pos;
    Out.clear();
    while (Pos < Text.size() && Text[Pos] != Quote) {
      if (Text[Pos] == '\\' && Pos + 1 < Text.size())
        ++Pos;
      Out += Text[Pos++];
    }
    if (Pos >= Text.size())
      return fail("unterminated string literal");
    ++Pos;
    return true;
  }

  bool number(uint64_t &Out) {
    skipWS();
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      return fail("expected number");
    Out = 0;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      Out = Out * 10 + static_cast<uint64_t>(Text[Pos++] - '0');
    return true;
  }

  bool parseProps(std::map<std::string, std::string> &Props) {
    if (!tryConsume('{'))
      return true;
    while (true) {
      std::string Key = ident();
      if (Key.empty())
        return fail("expected property key");
      if (!consume(':'))
        return false;
      std::string Value;
      if (!stringLiteral(Value))
        return false;
      Props[Key] = Value;
      if (tryConsume(','))
        continue;
      break;
    }
    return consume('}');
  }

  bool parseNodePattern(NodePattern &N) {
    if (!consume('('))
      return false;
    if (peek() != ':' && peek() != ')' && peek() != '{')
      N.Var = ident();
    if (tryConsume(':'))
      N.Label = ident();
    if (!parseProps(N.Props))
      return false;
    return consume(')');
  }

  bool parseRelPattern(RelPattern &R) {
    // `<-[...]-` reverse form or `-[...]->` forward form.
    if (peek() == '<') {
      ++Pos;
      R.Reverse = true;
    }
    if (!consume('-') || !consume('['))
      return false;
    if (peek() != ':' && peek() != '*' && peek() != ']' && peek() != '{')
      R.Var = ident();
    if (tryConsume(':')) {
      R.Types.push_back(ident());
      while (tryConsume('|'))
        R.Types.push_back(ident());
    }
    if (peek() == '{' && !parseProps(R.Props))
      return false;
    if (tryConsume('*')) {
      R.VarLength = true;
      R.MinHops = 0;
      R.Unbounded = true;
      if (std::isdigit(static_cast<unsigned char>(peek()))) {
        uint64_t N = 0;
        if (!number(N))
          return false;
        R.MinHops = static_cast<uint32_t>(N);
        R.MaxHops = R.MinHops;
        R.Unbounded = false;
      }
      if (tryConsume('.')) {
        if (!consume('.'))
          return false;
        R.Unbounded = true;
        if (std::isdigit(static_cast<unsigned char>(peek()))) {
          uint64_t N = 0;
          if (!number(N))
            return false;
          R.MaxHops = static_cast<uint32_t>(N);
          R.Unbounded = false;
        }
      }
    }
    if (peek() == '{' && !parseProps(R.Props))
      return false;
    if (!consume(']') || !consume('-'))
      return false;
    if (R.Reverse)
      return true; // `<-[...]-` has no trailing '>'.
    return consume('>');
  }

  bool parseMatchItem(MatchItem &M) {
    // Optional `p = (...)` path binding.
    size_t Save = Pos;
    std::string MaybeVar = ident();
    if (!MaybeVar.empty() && peek() == '=') {
      ++Pos; // '='
      M.PathVar = MaybeVar;
    } else {
      Pos = Save;
    }
    NodePattern First;
    if (!parseNodePattern(First))
      return false;
    M.Nodes.push_back(std::move(First));
    while (peek() == '-' || peek() == '<') {
      RelPattern R;
      if (!parseRelPattern(R))
        return false;
      NodePattern N;
      if (!parseNodePattern(N))
        return false;
      M.Rels.push_back(std::move(R));
      M.Nodes.push_back(std::move(N));
    }
    return true;
  }

  /// Parses `(OR cond)*` after \p First into \p Out: \p First itself when
  /// no OR follows, else one Or over all the alternatives.
  bool parseAlternatives(Condition First, Condition &Out) {
    if (!peekKeyword("OR")) {
      Out = std::move(First);
      return true;
    }
    Out = Condition();
    Out.K = Condition::Kind::Or;
    Out.Alternatives.push_back(std::move(First));
    while (peekKeyword("OR")) {
      consumeKeyword("OR");
      Condition Next;
      if (!parseCondition(Next))
        return false;
      Out.Alternatives.push_back(std::move(Next));
    }
    return true;
  }

  /// cond := NOT? '(' cond (OR cond)* ')' | NOT? atom
  bool parseCondition(Condition &C) {
    bool Negated = false;
    if (peekKeyword("NOT")) {
      consumeKeyword("NOT");
      Negated = true;
    }
    if (!tryConsume('(')) {
      C.Negated = Negated;
      return parseAtom(C);
    }
    Condition First;
    if (!parseCondition(First) || !parseAlternatives(std::move(First), C))
      return false;
    if (peekKeyword("AND"))
      return fail("only OR may be parenthesized");
    C.Negated = C.Negated != Negated;
    return consume(')');
  }

  /// atom := operand ('=' | '<>') operand | var.key IN [str, ...] | pred(var)
  bool parseAtom(Condition &C) {
    size_t Save = Pos;
    std::string Name = ident();
    if (Name.empty())
      return fail("expected condition");
    if (peek() == '(') {
      // Path predicate: pred(p).
      ++Pos;
      C.K = Condition::Kind::PathPredicate;
      C.PredName = Name;
      C.PredArg = ident();
      return consume(')');
    }
    Pos = Save;
    C.K = Condition::Kind::Compare;
    C.LHSVar = ident();
    if (!consume('.'))
      return false;
    C.LHSKey = ident();
    if (peekKeyword("IN")) {
      consumeKeyword("IN");
      C.K = Condition::Kind::In;
      if (!consume('['))
        return false;
      do {
        std::string Value;
        if (!stringLiteral(Value))
          return false;
        C.RHSList.push_back(std::move(Value));
      } while (tryConsume(','));
      return consume(']');
    }
    skipWS();
    if (tryConsume('=')) {
      C.NotEqual = false;
    } else if (peek() == '<') {
      ++Pos;
      if (!consume('>'))
        return false;
      C.NotEqual = true;
    } else {
      return fail("expected '=', '<>' or IN");
    }
    skipWS();
    if (peek() == '\'' || peek() == '"') {
      C.RHSIsLiteral = true;
      return stringLiteral(C.RHSLiteral);
    }
    C.RHSIsLiteral = false;
    C.RHSVar = ident();
    if (!consume('.'))
      return false;
    C.RHSKey = ident();
    return true;
  }

  /// where := cond (AND cond)* | cond (OR cond)+
  bool parseWhere(Query &Q) {
    Condition First, C;
    if (!parseCondition(First))
      return false;
    bool Disjunction = peekKeyword("OR");
    if (!parseAlternatives(std::move(First), C))
      return false;
    Q.Where.push_back(std::move(C));
    while (!Disjunction && peekKeyword("AND")) {
      consumeKeyword("AND");
      Condition Next;
      if (!parseCondition(Next))
        return false;
      Q.Where.push_back(std::move(Next));
    }
    if (peekKeyword(Disjunction ? "AND" : "OR"))
      return fail("mixing AND and OR needs parentheses");
    return true;
  }

  bool parseQueryBody(Query &Q) {
    if (!consumeKeyword("MATCH"))
      return false;
    while (true) {
      MatchItem M;
      if (!parseMatchItem(M))
        return false;
      Q.Matches.push_back(std::move(M));
      if (tryConsume(','))
        continue;
      break;
    }
    if (peekKeyword("WHERE")) {
      consumeKeyword("WHERE");
      if (!parseWhere(Q))
        return false;
    }
    if (!consumeKeyword("RETURN"))
      return false;
    if (peekKeyword("DISTINCT")) {
      consumeKeyword("DISTINCT");
      Q.Distinct = true;
    }
    while (true) {
      ReturnItem R;
      R.Var = ident();
      if (R.Var.empty())
        return fail("expected return item");
      if (tryConsume('.'))
        R.Key = ident();
      Q.Returns.push_back(std::move(R));
      if (tryConsume(','))
        continue;
      break;
    }
    if (peekKeyword("LIMIT")) {
      consumeKeyword("LIMIT");
      if (!number(Q.Limit))
        return false;
    }
    skipWS();
    if (Pos != Text.size())
      return fail("trailing input after query");
    return true;
  }
};

} // namespace

bool graphdb::parseQuery(const std::string &Text, Query &Out,
                         std::string *Error) {
  return QueryParser(Text).parse(Out, Error);
}
