//===- graphdb/MDGImport.h - MDG to property-graph import --------*- C++ -*-==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Imports a Multiversion Dependency Graph into the property-graph store —
/// the counterpart of Graph.js's "importing the MDG into a graph database"
/// step (§4). Node labels, relationship types, and property names form the
/// schema the vulnerability queries are written against:
///
///   Nodes:  (:Object {taint, label, line, site})
///           (:Call   {name, path, line})
///   Rels:   [:D]  [:P {name}]  [:PU]  [:V {name}]  [:VU]
///
//===----------------------------------------------------------------------===//

#ifndef GJS_GRAPHDB_MDGIMPORT_H
#define GJS_GRAPHDB_MDGIMPORT_H

#include "graphdb/PropertyGraph.h"
#include "mdg/MDG.h"
#include "support/StringInterner.h"

#include <vector>

namespace gjs {

class Deadline;

namespace graphdb {

/// Result of an import: the store plus the MDG→store node mapping.
struct ImportedMDG {
  PropertyGraph Graph;
  /// mdg::NodeId → NodeHandle (ids coincide by construction, but callers
  /// should not rely on it).
  std::vector<NodeHandle> NodeOf;
  /// True when a scan deadline expired mid-import: the store holds a
  /// partial graph (all nodes imported so far; possibly missing edges).
  /// Queries over it are sound-but-incomplete — the paper's partial-results
  /// behavior under the per-package timeout.
  bool Truncated = false;
};

/// Imports \p MDG (with property names from \p Props) into a fresh store
/// and freezes it (PropertyGraph::freeze), partial imports included.
/// A scan-level \p ScanDeadline is checkpointed per node and edge; on
/// expiry the import stops, returning the partial store with Truncated set.
ImportedMDG importMDG(const mdg::Graph &MDG, const StringInterner &Props,
                      Deadline *ScanDeadline = nullptr);

} // namespace graphdb
} // namespace gjs

#endif // GJS_GRAPHDB_MDGIMPORT_H
