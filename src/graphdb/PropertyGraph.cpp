//===- graphdb/PropertyGraph.cpp - Labeled property graph ------------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/PropertyGraph.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace gjs;
using namespace gjs::graphdb;

namespace {

/// Index of \p Name in a small name table; NoId when absent.
uint32_t findName(const std::vector<std::string> &Table,
                  std::string_view Name) {
  for (size_t I = 0; I < Table.size(); ++I)
    if (Table[I] == Name)
      return static_cast<uint32_t>(I);
  return NoId;
}

/// Index of \p Name in a small name table, appending it when new.
uint32_t internName(std::vector<std::string> &Table, std::string_view Name) {
  uint32_t I = findName(Table, Name);
  if (I != NoId)
    return I;
  Table.emplace_back(Name);
  return static_cast<uint32_t>(Table.size() - 1);
}

/// Counting-sort CSR over one endpoint array: a stable bucket of the
/// relationship handles per node, so each node's list keeps insertion order.
void buildCSR(const std::vector<NodeHandle> &Endpoint, size_t NumNodes,
              std::vector<uint32_t> &Off, std::vector<RelHandle> &Rels) {
  Off.assign(NumNodes + 1, 0);
  for (NodeHandle N : Endpoint)
    ++Off[N + 1];
  std::partial_sum(Off.begin(), Off.end(), Off.begin());
  Rels.resize(Endpoint.size());
  std::vector<uint32_t> Fill(Off.begin(), Off.end() - 1);
  for (size_t R = 0; R < Endpoint.size(); ++R)
    Rels[Fill[Endpoint[R]]++] = static_cast<RelHandle>(R);
}

} // namespace

PropertyGraph::PropertyGraph() { intern(""); }

StrId PropertyGraph::intern(std::string_view S) {
  auto It = StrIndex.find(S);
  if (It != StrIndex.end())
    return It->second;
  StrId Id = static_cast<StrId>(Pool.size());
  Pool.emplace_back(S);
  StrIndex.emplace(Pool.back(), Id);
  return Id;
}

NodeHandle
PropertyGraph::addNode(std::string_view Label,
                       const std::map<std::string, std::string> &Props) {
  assert(!Frozen && "addNode after freeze()");
  NodeHandle H = static_cast<NodeHandle>(NodeLabel.size());
  NodeLabel.push_back(internName(LabelNames, Label));
  for (const auto &[Key, Value] : Props)
    setProp(H, internNodeKey(Key), Value);
  return H;
}

RelHandle
PropertyGraph::addRel(NodeHandle From, NodeHandle To, std::string_view Type,
                      const std::map<std::string, std::string> &Props) {
  assert(!Frozen && "addRel after freeze()");
  if (From >= numNodes() || To >= numNodes())
    return InvalidHandle; // Reject bad endpoints instead of corrupting.
  if (findName(TypeNames, Type) == NoId && TypeNames.size() >= MaxRelTypes)
    return InvalidHandle; // A type set must fit one 64-bit mask.
  uint32_t T = internName(TypeNames, Type);
  RelHandle H = static_cast<RelHandle>(RelType.size());
  RelFrom.push_back(From);
  RelTo.push_back(To);
  RelType.push_back(static_cast<uint8_t>(T));
  for (const auto &[Key, Value] : Props)
    setRelProp(H, internRelKey(Key), Value);
  return H;
}

uint32_t PropertyGraph::internNodeKey(std::string_view Key) {
  uint32_t K = internName(NodeKeys, Key);
  if (K == NodeCols.size())
    NodeCols.emplace_back();
  return K;
}

uint32_t PropertyGraph::internRelKey(std::string_view Key) {
  uint32_t K = internName(RelKeys, Key);
  if (K == RelCols.size())
    RelCols.emplace_back();
  return K;
}

void PropertyGraph::setProp(NodeHandle H, uint32_t Key,
                            std::string_view Value) {
  std::vector<StrId> &Col = NodeCols[Key];
  if (Col.size() <= H)
    Col.resize(H + 1, NoStr);
  Col[H] = intern(Value);
}

void PropertyGraph::setRelProp(RelHandle H, uint32_t Key,
                               std::string_view Value) {
  std::vector<StrId> &Col = RelCols[Key];
  if (Col.size() <= H)
    Col.resize(H + 1, NoStr);
  Col[H] = intern(Value);
}

void PropertyGraph::freeze() {
  assert(!Frozen && "freeze() called twice");
  buildCSR(RelFrom, numNodes(), OutOff, OutRels);
  buildCSR(RelTo, numNodes(), InOff, InRels);
  ByLabel.assign(LabelNames.size(), {});
  for (size_t H = 0; H < numNodes(); ++H)
    ByLabel[NodeLabel[H]].push_back(static_cast<NodeHandle>(H));
  AllNodes.resize(numNodes());
  std::iota(AllNodes.begin(), AllNodes.end(), 0);
  // Columns span every handle, so the hot-path bound check always hits.
  for (std::vector<StrId> &Col : NodeCols)
    Col.resize(numNodes(), NoStr);
  for (std::vector<StrId> &Col : RelCols)
    Col.resize(numRels(), NoStr);
  Frozen = true;
}

HandleSpan PropertyGraph::nodesByLabel(const std::string &Label) const {
  assert(Frozen && "label index read before freeze()");
  if (Label.empty())
    return AllNodes;
  uint32_t L = labelId(Label);
  return L == NoId ? HandleSpan() : HandleSpan(ByLabel[L]);
}

uint32_t PropertyGraph::labelId(std::string_view Label) const {
  return findName(LabelNames, Label);
}

uint32_t PropertyGraph::relTypeId(std::string_view Type) const {
  return findName(TypeNames, Type);
}

uint32_t PropertyGraph::nodeKeyId(std::string_view Key) const {
  return findName(NodeKeys, Key);
}

uint32_t PropertyGraph::relKeyId(std::string_view Key) const {
  return findName(RelKeys, Key);
}

StrId PropertyGraph::strId(std::string_view S) const {
  auto It = StrIndex.find(S);
  return It == StrIndex.end() ? NoStr : It->second;
}

const std::string &PropertyGraph::prop(NodeHandle H,
                                       const std::string &Key) const {
  uint32_t K = nodeKeyId(Key);
  StrId V = K == NoId ? NoStr : propId(H, K);
  return V == NoStr ? Pool[0] : Pool[V];
}

const std::string &PropertyGraph::relProp(RelHandle H,
                                          const std::string &Key) const {
  uint32_t K = relKeyId(Key);
  StrId V = K == NoId ? NoStr : relPropId(H, K);
  return V == NoStr ? Pool[0] : Pool[V];
}
