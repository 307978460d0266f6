//===- graphdb/MDGImport.cpp - MDG to property-graph import ----------------==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//

#include "graphdb/MDGImport.h"

#include "obs/Counters.h"
#include "support/Deadline.h"

#include <charconv>

using namespace gjs;
using namespace gjs::graphdb;
using namespace gjs::mdg;

ImportedMDG graphdb::importMDG(const Graph &MDG, const StringInterner &Props,
                               Deadline *ScanDeadline) {
  ImportedMDG Out;
  PropertyGraph &G = Out.Graph;
  Out.NodeOf.reserve(MDG.numNodes());
  const uint32_t KLabel = G.internNodeKey("label");
  const uint32_t KSite = G.internNodeKey("site");
  const uint32_t KLine = G.internNodeKey("line");
  const uint32_t KName = G.internNodeKey("name");
  const uint32_t KPath = G.internNodeKey("path");
  const uint32_t KTaint = G.internNodeKey("taint");
  const uint32_t KRelName = G.internRelKey("name");
  // Line and site numbers are interned as their decimal text.
  auto SetNumber = [&G](NodeHandle H, uint32_t Key, uint64_t V) {
    char Buf[24];
    auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
    (void)Ec;
    G.setProp(H, Key, std::string_view(Buf, static_cast<size_t>(End - Buf)));
  };

  for (NodeId N : MDG.nodeIds()) {
    // Cooperative cancellation: one checkpoint per imported node. On
    // expiry, stop — queries run over the partial store.
    if (ScanDeadline && ScanDeadline->checkpoint()) {
      Out.Truncated = true;
      G.freeze();
      return Out;
    }
    const Node &Src = MDG.node(N);
    bool IsCall = Src.Kind == NodeKind::Call;
    NodeHandle H = G.addNode(IsCall ? "Call" : "Object");
    G.setProp(H, KLabel, Src.Label);
    SetNumber(H, KSite, Src.Site);
    SetNumber(H, KLine, Src.Loc.Line);
    if (IsCall) {
      G.setProp(H, KName, Src.CallName);
      G.setProp(H, KPath, Src.CallPath);
    } else {
      G.setProp(H, KTaint, Src.IsTaintSource ? "true" : "false");
    }
    Out.NodeOf.push_back(H);
    obs::counters::ImportNodes.add();
  }

  for (NodeId N : MDG.nodeIds()) {
    for (const Edge &E : MDG.out(N)) {
      // One checkpoint per imported relationship.
      if (ScanDeadline && ScanDeadline->checkpoint()) {
        Out.Truncated = true;
        G.freeze();
        return Out;
      }
      const char *Type = "D";
      bool Named = false;
      switch (E.Kind) {
      case EdgeKind::Dep:
        Type = "D";
        break;
      case EdgeKind::Prop:
        Type = "P";
        Named = true;
        break;
      case EdgeKind::PropUnknown:
        Type = "PU";
        break;
      case EdgeKind::Version:
        Type = "V";
        Named = true;
        break;
      case EdgeKind::VersionUnknown:
        Type = "VU";
        break;
      }
      RelHandle R = G.addRel(Out.NodeOf[E.From], Out.NodeOf[E.To], Type);
      if (Named && R != InvalidHandle)
        G.setRelProp(R, KRelName, Props.str(E.Prop));
      obs::counters::ImportRels.add();
    }
  }
  // The store is read-only from here on: build the CSR adjacency and the
  // label index the query engine walks.
  G.freeze();
  return Out;
}
