//===- graphdb/PropertyGraph.h - Labeled property graph ----------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory labeled property graph — the storage model of the graph
/// database that stands in for Neo4j (§4: "Graph.js ... stores [the MDG]
/// in a Neo4j graph database" and queries it with Cypher).
///
/// Nodes carry one label (e.g. "Object", "Call") and string properties;
/// relationships carry a type (e.g. "D", "P", "V") and string properties.
///
/// The store has two phases. While loading, `addNode`/`addRel` append
/// and `setProp`/`setRelProp` fill property columns. `freeze()` then
/// builds the read side the query engine walks:
///
///   - CSR out/in adjacency: per-node offsets into one handle array each,
///     in relationship insertion order;
///   - small-integer label, relationship-type and property-key ids (at
///     most 64 relationship types, so a type set is one bitmask);
///   - one interned column per property key: a StrId per node (or rel),
///     NoStr where the key is absent, over one string pool;
///   - one handle list per label.
///
/// The string accessors (`label`, `prop`, `relProp`, ...) read through
/// the pool; the id accessors are what compiled queries use.
///
//===----------------------------------------------------------------------===//

#ifndef GJS_GRAPHDB_PROPERTYGRAPH_H
#define GJS_GRAPHDB_PROPERTYGRAPH_H

#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gjs {
namespace graphdb {

using NodeHandle = uint32_t;
using RelHandle = uint32_t;
constexpr NodeHandle InvalidHandle = static_cast<NodeHandle>(-1);

/// An interned string (property value) id. Id 0 is the empty string.
using StrId = uint32_t;
/// The value of an absent property — distinct from the empty string.
constexpr StrId NoStr = static_cast<StrId>(-1);
/// "No such label / relationship type / property key / string".
constexpr uint32_t NoId = static_cast<uint32_t>(-1);
/// Relationship types are bits of a 64-bit mask in compiled patterns.
constexpr uint32_t MaxRelTypes = 64;

/// A read-only run of node or relationship handles.
using HandleSpan = std::span<const uint32_t>;

/// The graph store: loaded append-only, then frozen for querying.
class PropertyGraph {
public:
  PropertyGraph();
  // The pool index holds views into the pool: moves keep them valid,
  // copies would not.
  PropertyGraph(const PropertyGraph &) = delete;
  PropertyGraph &operator=(const PropertyGraph &) = delete;
  PropertyGraph(PropertyGraph &&) = default;
  PropertyGraph &operator=(PropertyGraph &&) = default;

  //===--- Loading -------------------------------------------------------===//

  NodeHandle addNode(std::string_view Label,
                     const std::map<std::string, std::string> &Props = {});
  /// Adds a relationship; returns InvalidHandle when an endpoint is out of
  /// range (the caller imported a malformed graph) or the type would be
  /// the 65th distinct one.
  RelHandle addRel(NodeHandle From, NodeHandle To, std::string_view Type,
                   const std::map<std::string, std::string> &Props = {});

  /// Interns a property key, returning its column id.
  uint32_t internNodeKey(std::string_view Key);
  uint32_t internRelKey(std::string_view Key);
  void setProp(NodeHandle H, uint32_t Key, std::string_view Value);
  void setRelProp(RelHandle H, uint32_t Key, std::string_view Value);

  /// Builds the CSR adjacency and label index. Called once, after the
  /// last add; adding to a frozen graph is a programming error.
  void freeze();

  //===--- Reading (strings) ---------------------------------------------===//

  size_t numNodes() const { return NodeLabel.size(); }
  size_t numRels() const { return RelType.size(); }

  const std::string &label(NodeHandle H) const {
    return LabelNames[NodeLabel[H]];
  }
  const std::string &relType(RelHandle H) const {
    return TypeNames[RelType[H]];
  }
  NodeHandle relFrom(RelHandle H) const { return RelFrom[H]; }
  NodeHandle relTo(RelHandle H) const { return RelTo[H]; }

  /// Outgoing / incoming relationship handles of a node, in insertion
  /// order (frozen graphs only).
  HandleSpan out(NodeHandle H) const {
    assert(Frozen && "adjacency read before freeze()");
    return HandleSpan(OutRels.data() + OutOff[H], OutOff[H + 1] - OutOff[H]);
  }
  HandleSpan in(NodeHandle H) const {
    assert(Frozen && "adjacency read before freeze()");
    return HandleSpan(InRels.data() + InOff[H], InOff[H + 1] - InOff[H]);
  }

  /// All node handles with the given label ("" = all nodes), ascending
  /// (frozen graphs only).
  HandleSpan nodesByLabel(const std::string &Label) const;

  /// Property access with "" default.
  const std::string &prop(NodeHandle H, const std::string &Key) const;
  const std::string &relProp(RelHandle H, const std::string &Key) const;

  //===--- Reading (ids) -------------------------------------------------===//

  /// Id lookups; NoId when the graph never stored the name.
  uint32_t labelId(std::string_view Label) const;
  uint32_t relTypeId(std::string_view Type) const;
  uint32_t nodeKeyId(std::string_view Key) const;
  uint32_t relKeyId(std::string_view Key) const;
  /// The pool id of \p S; NoStr when no property value equals it.
  StrId strId(std::string_view S) const;
  const std::string &str(StrId Id) const { return Pool[Id]; }

  uint32_t labelOf(NodeHandle H) const { return NodeLabel[H]; }
  uint32_t relTypeOf(RelHandle H) const { return RelType[H]; }
  /// Property value ids; NoStr when absent.
  StrId propId(NodeHandle H, uint32_t Key) const {
    const std::vector<StrId> &Col = NodeCols[Key];
    return H < Col.size() ? Col[H] : NoStr;
  }
  StrId relPropId(RelHandle H, uint32_t Key) const {
    const std::vector<StrId> &Col = RelCols[Key];
    return H < Col.size() ? Col[H] : NoStr;
  }

private:
  // The string pool: stable storage (ids index it) plus a view-keyed
  // index into it.
  std::deque<std::string> Pool;
  std::unordered_map<std::string_view, StrId> StrIndex;

  std::vector<std::string> LabelNames, TypeNames, NodeKeys, RelKeys;

  std::vector<uint32_t> NodeLabel;
  std::vector<std::vector<StrId>> NodeCols; ///< [key][node]
  std::vector<NodeHandle> RelFrom, RelTo;
  std::vector<uint8_t> RelType;
  std::vector<std::vector<StrId>> RelCols; ///< [key][rel]

  // Frozen read side.
  bool Frozen = false;
  std::vector<uint32_t> OutOff, InOff;
  std::vector<RelHandle> OutRels, InRels;
  std::vector<std::vector<NodeHandle>> ByLabel;
  std::vector<NodeHandle> AllNodes;

  StrId intern(std::string_view S);
};

} // namespace graphdb
} // namespace gjs

#endif // GJS_GRAPHDB_PROPERTYGRAPH_H
