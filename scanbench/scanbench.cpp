//===- scanbench/scanbench.cpp - End-to-end and per-layer scan benchmark ---==//
//
// Part of graphjs-cpp (PLDI 2024 MDG reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the scanning pipeline from outside, through its public entry
/// points, on four seeded workloads (see scanbench/README.md):
///
///   vuln_small      Scanner::scanPackage, in process, < 500 LoC packages
///   vuln_large      Scanner::scanPackage, in process, > 1000 LoC packages
///   collected_pool  driver::ProcessPool (persistent workers)
///   linked_trees    Scanner::scanDependencyTree
///
/// `--trace 0` measures the end-to-end metrics with nothing but the
/// benchmark's own clocks around each scan. `--trace 1` additionally runs a
/// layer-by-layer mirror of the scanner (parse, normalize, async lowering,
/// pruning, MDG build, graphdb import, one call per query class), times
/// every call, and checks that the mirror reports exactly what the
/// scanner reported. Every scan uses eval::HarnessOptions::defaults().
///
/// The last line of stdout is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
/// A correctness-gate mismatch prints correct=false and exits 1.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/MDGBuilder.h"
#include "analysis/PackageGraph.h"
#include "analysis/TaintSummary.h"
#include "core/AsyncLower.h"
#include "core/Normalizer.h"
#include "driver/ProcessPool.h"
#include "eval/Harness.h"
#include "eval/Metrics.h"
#include "frontend/Parser.h"
#include "obs/Counters.h"
#include "obs/Histogram.h"
#include "queries/QueryRunner.h"
#include "support/Deadline.h"
#include "workload/Datasets.h"
#include "workload/DepTrees.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

using namespace gjs;
using queries::VulnReport;
using queries::VulnType;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// splitmix64 finalizer: independent streams per (seed, chunk).
uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed * 0x9E3779B97F4A7C15ULL + Stream + 0x632BE59BD9B4E019ULL;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

size_t linesOf(const std::string &S) {
  return static_cast<size_t>(std::count(S.begin(), S.end(), '\n')) +
         (!S.empty() && S.back() != '\n' ? 1 : 0);
}

//===----------------------------------------------------------------------===//
// Workload inputs
//===----------------------------------------------------------------------===//

enum class ItemKind {
  Package,     ///< dataset package, scored against its annotations
  AsyncVuln,   ///< must report at the annotated sink
  AsyncBenign, ///< must stay clean
  TreeVuln,    ///< vulnerable chain or cycle: must report at the sink
  TreeBenign,  ///< benign twin: must stay clean
  TreeValve,   ///< missing or broken dependency: its class never pruned
};

struct Item {
  std::string Name;
  ItemKind Kind = ItemKind::Package;
  workload::Package Truth; ///< the package (files and annotations)
  std::optional<workload::DepTree> Tree; ///< linked_trees: the tree instead
  VulnType TreeType = VulnType::CommandInjection;
  size_t LoC = 0;
};

const char *const WorkloadNames[] = {"vuln_small", "vuln_large",
                                     "collected_pool", "linked_trees"};

/// Table 3's VulcaN + SecBench per-CWE totals (166:169:54:214), scaled to a
/// chunk of 100 packages.
constexpr workload::DatasetCounts ReferenceMix{28, 28, 9, 35};

/// One vuln_large round: package shapes at fixed sizes in Table 7's
/// > 1000 LoC bucket. Classes follow Table 3's proportions (2 CWE-22,
/// 2 CWE-78, 1 CWE-94, 3 CWE-1321); the complexities and variants cover
/// the generator's kinds, including the shapes that exhaust a budget
/// (recursive prototype pollution), miss (indirect call) and mislead
/// (guarded decoy). Fixing the shapes and sizes keeps the seed from
/// changing the size and budget-hit mix, which would otherwise dominate
/// every metric's run-to-run spread with so few packages per run; the seed
/// draws the code of each package and the scan order.
///
/// The sizes keep a round short (about 7 s on a 4-core Xeon host), so a run
/// holds several rounds and its figures average over the host's speed
/// drift. The budget-exhausting shape, retried down the degradation ladder,
/// is the round's one slowest package by a wide margin (about twice the
/// next), so the p95 (the 1-in-8 tail) is the median over the run of that
/// one shape rather than whichever of two overlapping shapes came out
/// slower. Time grows superlinearly with size for every shape, so the
/// other sizes stay below 1200 filler lines, except the indirect-call
/// shape, the cheapest per line, which spans the LoC range for
/// mdg.edge_growth_exponent at 1500.
struct LargeShape {
  VulnType Type;
  workload::Complexity Complex;
  workload::VariantKind Variant;
  size_t Filler;
};
const LargeShape LargeRound[] = {
    {VulnType::PathTraversal, workload::Complexity::Direct,
     workload::VariantKind::Plain, 1000},
    {VulnType::CodeInjection, workload::Complexity::Deep,
     workload::VariantKind::Guarded, 1050},
    {VulnType::CommandInjection, workload::Complexity::Wrapped,
     workload::VariantKind::ExtraSink, 1100},
    {VulnType::PathTraversal, workload::Complexity::Loop,
     workload::VariantKind::Sanitized, 1100},
    {VulnType::PrototypePollution, workload::Complexity::Loop,
     workload::VariantKind::Plain, 1200},
    {VulnType::CommandInjection, workload::Complexity::Deep,
     workload::VariantKind::Plain, 1150},
    {VulnType::PrototypePollution, workload::Complexity::Loop,
     workload::VariantKind::IndirectCall, 1500},
};
/// The budget-exhausting shape, scanned once per round.
const LargeShape LargeTail = {VulnType::PrototypePollution,
                              workload::Complexity::Recursive,
                              workload::VariantKind::Plain, 1000};
constexpr size_t LargeRoundSize = std::size(LargeRound) + 1;

void shuffleItems(std::vector<Item> &V, RNG &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

Item packageItem(workload::Package P, const std::string &Prefix,
                 ItemKind Kind = ItemKind::Package) {
  Item It;
  It.Name = Prefix + P.Name;
  It.Kind = Kind;
  for (const scanner::SourceFile &F : P.Files)
    It.LoC += linesOf(F.Contents);
  It.Truth = std::move(P);
  return It;
}

/// The filler size at quantile \p Q of workload::makeDataset's filler
/// distribution below 500 LoC: 47% in [0, 70), 53% in [80, 460).
size_t smallFillerAt(double Q) {
  return Q < 0.47 ? static_cast<size_t>(Q / 0.47 * 70)
                  : 80 + static_cast<size_t>((Q - 0.47) / 0.53 * 380);
}

/// What the generator made, without its code: the kind (the generator's
/// name prefix), and for vulnerable kinds the class, complexity and
/// variant. makeCollected's guarded decoys carry no annotation.
struct Shape {
  std::string Kind;
  VulnType Type = VulnType::CommandInjection;
  workload::Complexity Complex = workload::Complexity::Direct;
  workload::VariantKind Variant = workload::VariantKind::Plain;
  bool Decoy = false;

  auto key() const {
    return std::tie(Kind, Type, Complex, Variant, Decoy);
  }
};

Shape shapeOf(const workload::Package &P) {
  Shape S;
  S.Kind = P.Name.substr(0, P.Name.find('-'));
  S.Complex = P.Complex;
  S.Variant = P.Variant;
  if (!P.Annotations.empty())
    S.Type = P.Annotations.front().Type;
  else if (S.Kind == "cmd" || S.Kind == "code" || S.Kind == "path" ||
           S.Kind == "proto") {
    S.Decoy = true;
    S.Type = S.Kind == "cmd"    ? VulnType::CommandInjection
             : S.Kind == "code" ? VulnType::CodeInjection
             : S.Kind == "path" ? VulnType::PathTraversal
                                : VulnType::PrototypePollution;
  }
  return S;
}

/// Writes a package of shape \p S with \p Filler lines of filler.
workload::Package generate(const Shape &S, size_t Filler,
                           workload::PackageGenerator &Gen) {
  if (S.Kind == "util")
    return Gen.benign(Filler);
  if (S.Kind == "safe")
    return Gen.benignWithSafeSinks(Filler);
  if (S.Kind == "loader")
    return Gen.dynamicRequire(Filler);
  workload::Package P = Gen.vulnerable(S.Type, S.Complex, S.Variant, Filler);
  if (S.Decoy) {
    // As makeCollected does: the main flow stays exploitable, unreported.
    for (const workload::Annotation &A : P.Annotations)
      P.ExtraRealLines.push_back(A.SinkLine);
    P.Annotations.clear();
  }
  return P;
}

/// The shape frame of a workload: the shapes of 16 draws of the workload's
/// generator with fixed seeds (1,600 for makeDataset, 2,048 for
/// makeCollected), sorted so that a systematic sample of it is stratified
/// by kind, class, complexity and variant.
std::vector<Shape> shapeFrame(bool Collected) {
  constexpr uint64_t FrameSeed = 2024; // the evaluation's ground-truth seed
  std::vector<Shape> Frame;
  for (uint64_t K = 0; K < 16; ++K)
    for (const workload::Package &P :
         Collected ? workload::makeCollected(FrameSeed + K, 128)
                   : workload::makeDataset(FrameSeed + K, ReferenceMix))
      Frame.push_back(shapeOf(P));
  std::sort(Frame.begin(), Frame.end(), [](const Shape &A, const Shape &B) {
    return A.key() < B.key();
  });
  return Frame;
}

/// One chunk of \p N packages: a systematic sample of the frame (every
/// shape group gets its proportional count, the seed picks the offset),
/// each group written at evenly spaced quantiles of the filler
/// distribution (with a seeded offset per group). Seeds then change the
/// code, not the mix of shapes and sizes: random draws of both made the
/// share of tiny packages (for the median) and of a few heavy ones (for
/// throughput) the largest sources of seed-to-seed spread.
std::vector<Item> stratifiedChunk(const std::vector<Shape> &Frame, size_t N,
                                  workload::PackageGenerator &Gen,
                                  const std::string &Prefix) {
  RNG &R = Gen.rng();
  double Step = static_cast<double>(Frame.size()) / N, Start = R.unit();
  std::map<std::pair<std::string, VulnType>, std::vector<const Shape *>>
      Groups;
  for (size_t I = 0; I < N; ++I) {
    const Shape &S = Frame[static_cast<size_t>((I + Start) * Step)];
    Groups[{S.Kind, S.Type}].push_back(&S);
  }
  std::vector<Item> Out;
  for (auto &[Key, Members] : Groups) {
    for (size_t I = Members.size(); I > 1; --I)
      std::swap(Members[I - 1], Members[R.below(I)]);
    double Offset = R.unit();
    for (size_t K = 0; K < Members.size(); ++K)
      Out.push_back(packageItem(
          generate(*Members[K], smallFillerAt((K + Offset) / Members.size()),
                   Gen),
          Prefix));
  }
  return Out;
}

std::vector<Item> vulnSmallChunk(uint64_t Seed, size_t Chunk) {
  static const std::vector<Shape> Frame = shapeFrame(/*Collected=*/false);
  workload::PackageGenerator Gen(mixSeed(Seed, Chunk));
  std::string Prefix = "c" + std::to_string(Chunk) + "-";
  std::vector<Item> Out = stratifiedChunk(Frame, 100, Gen, Prefix);
  // The async twins: each promise form once vulnerable, once benign.
  size_t Filler = 50;
  for (workload::AsyncForm F :
       {workload::AsyncForm::Await, workload::AsyncForm::ThenChain,
        workload::AsyncForm::PromiseExecutor,
        workload::AsyncForm::ErrorFirstCallback}) {
    Out.push_back(packageItem(Gen.asyncVulnerable(F, Filler), Prefix,
                              ItemKind::AsyncVuln));
    Out.push_back(packageItem(Gen.asyncBenign(F, Filler), Prefix,
                              ItemKind::AsyncBenign));
    Filler += 100;
  }
  shuffleItems(Out, Gen.rng());
  return Out;
}

std::vector<Item> collectedChunk(uint64_t Seed, size_t Chunk) {
  static const std::vector<Shape> Frame = shapeFrame(/*Collected=*/true);
  workload::PackageGenerator Gen(mixSeed(Seed, Chunk));
  std::vector<Item> Out =
      stratifiedChunk(Frame, 128, Gen, "c" + std::to_string(Chunk) + "-");
  shuffleItems(Out, Gen.rng());
  return Out;
}

std::vector<Item> vulnLargeChunk(uint64_t Seed, size_t Chunk) {
  workload::PackageGenerator Gen(mixSeed(Seed, Chunk));
  std::string Prefix = "c" + std::to_string(Chunk) + "-";
  std::vector<Item> Out;
  for (const LargeShape &L : LargeRound)
    Out.push_back(packageItem(
        Gen.vulnerable(L.Type, L.Complex, L.Variant, L.Filler), Prefix));
  shuffleItems(Out, Gen.rng());
  // The slow shape goes mid-round, so its samples are evenly spaced over
  // the run instead of bunching in one stretch of host speed.
  Out.insert(Out.begin() + Out.size() / 2,
             packageItem(Gen.vulnerable(LargeTail.Type, LargeTail.Complex,
                                        LargeTail.Variant, LargeTail.Filler),
                         Prefix));
  return Out;
}

Item treeItem(workload::DepTree T, const std::string &Name, ItemKind Kind,
              VulnType Type) {
  Item It;
  It.Name = Name;
  It.Kind = Kind;
  It.TreeType = Type;
  for (const analysis::PackageInfo &P : T.Graph.packages())
    for (const analysis::PackageFile &F : P.Files)
      It.LoC += linesOf(F.Contents);
  It.Truth.Name = Name;
  It.Truth.Annotations = T.Annotations;
  It.Truth.LoC = It.LoC;
  It.Tree = std::move(T);
  return It;
}

std::vector<Item> linkedTreesChunk(uint64_t Seed, size_t Chunk) {
  uint64_t S = mixSeed(Seed, Chunk);
  workload::DepTreeGenerator Gen(S);
  RNG &R = Gen.rng();
  static const VulnType Types[] = {
      VulnType::PathTraversal, VulnType::CommandInjection,
      VulnType::CodeInjection, VulnType::PrototypePollution};
  std::vector<Item> Out;
  std::string Prefix = "c" + std::to_string(Chunk) + "-t";
  auto Name = [&] { return Prefix + std::to_string(Out.size()); };
  for (unsigned Round = 0; Round < 16; ++Round) {
    VulnType T = Types[R.below(4)];
    unsigned Depth = 1 + static_cast<unsigned>(R.below(4));
    Out.push_back(treeItem(Gen.chain(T, Depth, true), Name(),
                           ItemKind::TreeVuln, T));
    Out.push_back(treeItem(Gen.chain(T, Depth, false), Name(),
                           ItemKind::TreeBenign, T));
    if (Round % 2 == 0) {
      bool Vulnerable = R.chance(0.5);
      Out.push_back(treeItem(Gen.cyclic(T, Vulnerable), Name(),
                             Vulnerable ? ItemKind::TreeVuln
                                        : ItemKind::TreeBenign,
                             T));
    }
    unsigned ValveDepth = 1 + static_cast<unsigned>(R.below(3));
    if (Round % 4 == 1)
      Out.push_back(treeItem(Gen.missingDep(T, ValveDepth), Name(),
                             ItemKind::TreeValve, T));
    if (Round % 4 == 3)
      Out.push_back(treeItem(Gen.brokenDep(T, ValveDepth), Name(),
                             ItemKind::TreeValve, T));
  }
  RNG Shuffle(S ^ 0x53485546);
  shuffleItems(Out, Shuffle);
  return Out;
}

/// The workload's input stream: chunks are generated on demand, outside
/// every timed region, and dropped once scanned and checked, so the peak
/// resident set measures the scans rather than the inputs kept so far.
class Corpus {
public:
  Corpus(std::string Workload, uint64_t Seed)
      : Workload(std::move(Workload)), Seed(Seed) {}

  /// Item \p I; items below the last release() point are gone.
  const Item &at(size_t I) {
    while (I >= End)
      grow();
    size_t C = 0;
    while (ChunkEnd[C] <= I)
      ++C;
    return Chunks[C][I - (C ? ChunkEnd[C - 1] : 0)];
  }

  /// Frees every chunk whose items all lie below \p I.
  void release(size_t I) {
    for (size_t C = 0; C < Chunks.size() && ChunkEnd[C] <= I; ++C)
      std::vector<Item>().swap(Chunks[C]);
  }

private:
  std::string Workload;
  uint64_t Seed;
  size_t End = 0;
  std::vector<std::vector<Item>> Chunks;
  std::vector<size_t> ChunkEnd;

  void grow() {
    size_t N = Chunks.size();
    Chunks.push_back(Workload == "vuln_small"     ? vulnSmallChunk(Seed, N)
                     : Workload == "vuln_large"   ? vulnLargeChunk(Seed, N)
                     : Workload == "collected_pool" ? collectedChunk(Seed, N)
                                                    : linkedTreesChunk(Seed, N));
    End += Chunks.back().size();
    ChunkEnd.push_back(End);
  }
};

//===----------------------------------------------------------------------===//
// Scanning through the public entry points
//===----------------------------------------------------------------------===//

/// One scanned item: what the scan returned and how long it took.
struct Sample {
  size_t Index = 0;
  double Seconds = 0;
  bool Crashed = false;   ///< no verdict: crash, kill, or exception
  bool Undecided = false; ///< crashed, or a budget or deadline hit
  unsigned Retries = 0;
  size_t Nodes = 0, Edges = 0;
  std::string PruneReason;
  std::vector<VulnReport> Reports;
};

Sample sampleOf(size_t Index, double Seconds, const scanner::ScanResult &R) {
  Sample S;
  S.Index = Index;
  S.Seconds = Seconds;
  S.Undecided = R.timedOut() || R.faulted();
  S.Retries = R.Retries;
  S.Nodes = R.MDGNodes;
  S.Edges = R.MDGEdges;
  S.PruneReason = R.PruneReason;
  S.Reports = R.Reports;
  return S;
}

Sample scanInProcess(scanner::Scanner &S, const Item &It, size_t Index) {
  Clock::time_point T0 = Clock::now();
  try {
    scanner::ScanResult R = It.Tree ? S.scanDependencyTree(It.Tree->Graph)
                                    : S.scanPackage(It.Truth.Files);
    return sampleOf(Index, secondsSince(T0), R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "scanbench: %s: scan threw: %s\n", It.Name.c_str(),
                 E.what());
    Sample Bad;
    Bad.Index = Index;
    Bad.Seconds = secondsSince(T0);
    Bad.Crashed = Bad.Undecided = true;
    return Bad;
  }
}

/// The comparable part of a report set: (class, line, sink), sorted. Pool
/// results come back through the journal line, which keeps no columns.
std::vector<std::string> reportKeys(const std::vector<VulnReport> &Reports) {
  std::vector<std::string> Keys;
  for (const VulnReport &R : Reports)
    Keys.push_back(std::string(queries::cweOf(R.Type)) + ":" +
                   std::to_string(R.SinkLoc.Line) + ":" + R.SinkName);
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

//===----------------------------------------------------------------------===//
// The traced mirror: the scanner's level-0 attempt, one layer call at a time
//===----------------------------------------------------------------------===//

int classIndex(VulnType T) { return static_cast<int>(T); }

struct Mirror {
  // Layer busy time, seconds.
  double Flatten = 0, Parse = 0, Normalize = 0, Lower = 0, Prune = 0,
         Build = 0, Import = 0;
  std::array<double, queries::NumVulnTypes> Query{};
  double Wall = 0;
  // Work counts.
  size_t AstNodes = 0, Stmts = 0, Nodes = 0, Edges = 0, Rels = 0;
  uint64_t BuildWork = 0, QuerySteps = 0, Backtracks = 0;
  unsigned Pruned = 0;
  bool Imported = false;
  bool BuildBudgetHit = false, QueryBudgetHit = false;
  std::vector<VulnReport> Reports;

  double layerSeconds() const {
    double Q = 0;
    for (double S : Query)
      Q += S;
    return Flatten + Parse + Normalize + Lower + Prune + Build + Import + Q;
  }
};

/// The scanner's module stem (require-target matching).
std::string stemOf(const std::string &Name) {
  std::string S = Name;
  size_t Slash = S.find_last_of('/');
  if (Slash != std::string::npos)
    S = S.substr(Slash + 1);
  if (S.size() > 3 && S.compare(S.size() - 3, 3, ".js") == 0)
    S = S.substr(0, S.size() - 3);
  return S;
}

/// Dependencies-first module order (Kahn over local requires; cycles keep
/// input order), as the scanner orders a multi-file package.
std::vector<size_t>
topoOrder(const std::vector<std::unique_ptr<core::Program>> &Programs,
          const std::vector<std::string> &Stems) {
  size_t N = Programs.size();
  std::vector<std::vector<size_t>> Requires(N);
  std::function<void(const std::vector<core::StmtPtr> &, size_t)> Collect =
      [&](const std::vector<core::StmtPtr> &Block, size_t I) {
        for (const core::StmtPtr &S : Block) {
          if (!S->RequireModule.empty()) {
            std::string Stem = stemOf(S->RequireModule);
            for (size_t J = 0; J < N; ++J)
              if (J != I && Stems[J] == Stem)
                Requires[I].push_back(J);
          }
          Collect(S->Then, I);
          Collect(S->Else, I);
          Collect(S->Body, I);
          if (S->K == core::StmtKind::FuncDef && S->Func)
            Collect(S->Func->Body, I);
        }
      };
  for (size_t I = 0; I < N; ++I)
    if (Programs[I])
      Collect(Programs[I]->TopLevel, I);
  std::vector<size_t> InDegree(N);
  for (size_t I = 0; I < N; ++I)
    InDegree[I] = Requires[I].size();

  std::vector<size_t> Order;
  std::vector<bool> Done(N, false);
  for (bool Progress = true; Progress;) {
    Progress = false;
    for (size_t I = 0; I < N; ++I) {
      if (Done[I] || InDegree[I] != 0)
        continue;
      Order.push_back(I);
      Done[I] = true;
      Progress = true;
      for (size_t J = 0; J < N; ++J)
        if (!Done[J])
          for (size_t Dep : Requires[J])
            if (Dep == I && InDegree[J] > 0)
              --InDegree[J];
    }
  }
  for (size_t I = 0; I < N; ++I)
    if (!Done[I])
      Order.push_back(I);
  return Order;
}

/// Runs one item through the pipeline's layers in scanner order, timing
/// every call. Mirrors scanner::Scanner's first (level-0) attempt with the
/// GraphDB backend, pruning and async lowering on.
Mirror mirrorScan(const Item &It, const scanner::ScanOptions &Cfg) {
  Mirror M;
  Clock::time_point Start = Clock::now(), T0;
  auto lap = [&](double &Acc) {
    Clock::time_point Now = Clock::now();
    Acc += std::chrono::duration<double>(Now - T0).count();
    T0 = Now;
  };
  bool PrevCounters = obs::setCountersEnabled(true);
  uint64_t BacktracksBefore = obs::counters::QueryBacktracks.value();

  // Dependency trees: flatten into one linked multi-module build.
  std::vector<scanner::SourceFile> TreeFiles;
  scanner::PackageLinkSpec LinkSpec;
  const scanner::PackageLinkSpec *Link = nullptr;
  if (It.Tree) {
    T0 = Clock::now();
    analysis::PackageGraph::FlatPlan Plan = It.Tree->Graph.flatten();
    lap(M.Flatten);
    LinkSpec.MissingDeps = Plan.MissingDeps;
    LinkSpec.Packages = &It.Tree->Graph;
    for (const analysis::PackageGraph::FlatModule &FM : Plan.Modules) {
      TreeFiles.push_back({FM.Path, *FM.Contents});
      LinkSpec.PkgOf.push_back(FM.Pkg);
      LinkSpec.IsMain.push_back(FM.IsMain);
    }
    Link = &LinkSpec;
  }
  const std::vector<scanner::SourceFile> &Files =
      It.Tree ? TreeFiles : It.Truth.Files;

  Deadline D = Deadline::combined(Cfg.Deadline.WallSeconds,
                                  Cfg.Deadline.WorkUnits);

  // frontend: parseJS per file; a file that fails to parse is skipped.
  std::vector<std::string> Stems(Files.size());
  std::vector<std::unique_ptr<ast::Program>> ASTs(Files.size());
  T0 = Clock::now();
  for (size_t I = 0; I < Files.size(); ++I) {
    Stems[I] = stemOf(Files[I].Name);
    DiagnosticEngine Diags;
    auto Module = parseJS(Files[I].Contents, Diags, &D);
    if (Diags.hasErrors())
      continue;
    M.AstNodes += ast::countNodes(*Module);
    ASTs[I] = std::move(Module);
  }
  lap(M.Parse);

  // core: Normalizer::normalize, then lowerAsync, module by module (the
  // lowering extends the module's statement-index range).
  std::vector<std::unique_ptr<core::Program>> Programs(Files.size());
  core::StmtIndex NextIndex = 1;
  bool SingleFile = Files.size() == 1 && !Link;
  T0 = Clock::now();
  for (size_t I = 0; I < Files.size(); ++I) {
    if (!ASTs[I])
      continue;
    DiagnosticEngine Diags;
    std::string Prefix = SingleFile ? ""
                         : Link ? Link->PkgOf[I] + "$" + Stems[I] + "$"
                                : Stems[I] + "$";
    core::Normalizer Norm(Diags, Prefix, NextIndex, &D);
    Programs[I] = Norm.normalize(*ASTs[I]);
    lap(M.Normalize);
    if (Cfg.AsyncLower)
      core::lowerAsync(*Programs[I], Prefix, &D);
    lap(M.Lower);
    NextIndex = Programs[I]->NumIndices + 1;
    M.Stmts += core::countStmts(Programs[I]->TopLevel);
    for (const auto &[Name, Fn] : Programs[I]->Functions)
      M.Stmts += core::countStmts(Fn->Body);
    T0 = Clock::now();
  }

  // analysis, prune stage: call graph, summaries, per-class decision.
  std::vector<const core::Program *> PruneMods;
  std::vector<std::string> PruneStems;
  analysis::ModuleLinkInfo TreeLink;
  if (Link) {
    TreeLink.ForceUnresolved = Link->MissingDeps;
    for (size_t I = 0; I < Files.size(); ++I)
      if (!Programs[I]) {
        TreeLink.ForceUnresolved.insert(Link->PkgOf[I]);
        TreeLink.ForceUnresolved.insert(Stems[I]);
      }
  }
  for (size_t I = 0; I < Programs.size(); ++I)
    if (Programs[I]) {
      if (Link) {
        TreeLink.PkgOf.push_back(Link->PkgOf[I]);
        if (Link->IsMain[I] && !TreeLink.ForceUnresolved.count(Link->PkgOf[I]))
          TreeLink.MainModuleOf.emplace(Link->PkgOf[I], PruneMods.size());
      }
      PruneMods.push_back(Programs[I].get());
      PruneStems.push_back(Stems[I]);
    }
  std::array<bool, queries::NumVulnTypes> Enabled;
  Enabled.fill(true);
  T0 = Clock::now();
  if (Cfg.Prune && !PruneMods.empty()) {
    analysis::CallGraph CG = analysis::CallGraph::build(
        PruneMods, PruneStems, Cfg.Builder.FallbackAllFunctionsExported,
        Link ? &TreeLink : nullptr);
    analysis::SummarySet Sums = analysis::computeSummaries(
        CG, PruneMods, queries::toSinkTable(Cfg.Sinks));
    analysis::PruneDecision PD = analysis::decidePruning(
        CG, Sums, Link && !TreeLink.ForceUnresolved.empty());
    M.Pruned = PD.numPruned();
    for (int C = 0; C < queries::NumVulnTypes; ++C)
      Enabled[C] = !PD.Prunable[C];
  }
  lap(M.Prune);

  // Module order: the flattened link order for trees, dependencies first
  // for packages.
  std::vector<analysis::PackageModule> Modules;
  if (Link) {
    for (size_t I = 0; I < Programs.size(); ++I)
      if (Programs[I])
        Modules.push_back({Files[I].Name, Programs[I].get(), Link->PkgOf[I],
                           static_cast<bool>(Link->IsMain[I])});
  } else {
    for (size_t I : topoOrder(Programs, Stems))
      if (Programs[I])
        Modules.push_back({Files[I].Name, Programs[I].get(), "", false});
  }
  lap(M.Flatten);

  // analysis, builder: buildMDG / MDGBuilder::buildPackage.
  if (Modules.empty()) {
    M.Wall = secondsSince(Start);
    obs::setCountersEnabled(PrevCounters);
    return M;
  }
  analysis::BuilderOptions BO = Cfg.Builder;
  BO.ScanDeadline = &D;
  for (const std::string &Name : Cfg.Sinks.sanitizers())
    BO.Sanitizers.insert(Name);
  analysis::BuildResult Build =
      Files.size() == 1 && !Link
          ? analysis::buildMDG(*Programs[0], BO)
          : analysis::MDGBuilder(BO).buildPackage(Modules,
                                                  Link ? &TreeLink : nullptr);
  lap(M.Build);
  M.Nodes = Build.Graph.numNodes();
  M.Edges = Build.Graph.numEdges();
  M.BuildWork = Build.WorkDone;
  M.BuildBudgetHit = Build.TimedOut;

  bool AllPruned = std::none_of(Enabled.begin(), Enabled.end(),
                                [](bool E) { return E; });
  std::string SchemaError;
  if (!AllPruned &&
      queries::GraphDBRunner::validateBuiltinQueries(Cfg.Sinks, &SchemaError)) {
    // graphdb: the GraphDBRunner constructor is the import.
    graphdb::EngineOptions EO = Cfg.Engine;
    EO.ScanDeadline = &D;
    T0 = Clock::now();
    queries::GraphDBRunner Runner(Build, EO);
    lap(M.Import);
    M.Imported = true;
    M.Rels = Runner.database().numRels();

    // queries: one call per class, in GraphDBRunner::detect's order.
    queries::DetectStats Stats;
    for (VulnType T : {VulnType::CommandInjection, VulnType::CodeInjection,
                       VulnType::PathTraversal, VulnType::PrototypePollution}) {
      if (!Enabled[classIndex(T)])
        continue;
      std::vector<VulnReport> R =
          T == VulnType::PrototypePollution
              ? Runner.detectPrototypePollution(&Stats)
              : Runner.detectTaintStyle(T, Cfg.Sinks, &Stats);
      lap(M.Query[classIndex(T)]);
      M.Reports.insert(M.Reports.end(), R.begin(), R.end());
    }
    M.QuerySteps = Stats.QueryWork;
    M.QueryBudgetHit = Stats.TimedOut;
  }
  M.Backtracks = obs::counters::QueryBacktracks.value() - BacktracksBefore;
  obs::setCountersEnabled(PrevCounters);
  M.Wall = secondsSince(Start);
  return M;
}

//===----------------------------------------------------------------------===//
// Statistics and output
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Percentile by linear interpolation between the closest ranks (Q in
/// [0, 1]). Unlike the nearest rank, it does not jump from one order
/// statistic to the next as the sample count changes from run to run.
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Lo + 1] - V[Lo]);
}

/// Least-squares slope of log(Y) against log(X); 0 when X does not vary.
double logLogSlope(const std::vector<std::pair<double, double>> &XY) {
  double N = 0, SX = 0, SY = 0, SXX = 0, SXY = 0;
  for (const auto &[X, Y] : XY) {
    if (X <= 0 || Y <= 0)
      continue;
    double LX = std::log(X), LY = std::log(Y);
    N += 1;
    SX += LX;
    SY += LY;
    SXX += LX * LX;
    SXY += LX * LY;
  }
  double Den = N * SXX - SX * SX;
  return N >= 2 && Den > 1e-12 ? (N * SXY - SX * SY) / Den : 0;
}

/// This process's peak resident set (VmHWM), in MiB.
double selfPeakRssMB() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB / 1024.0;
}

/// The largest reaped child's peak resident set, in MiB.
double childrenPeakRssMB() {
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  ::getrusage(RUSAGE_CHILDREN, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// The gate: every mismatch is recorded with a reason and fails the run.
struct Gate {
  size_t Checked = 0;
  std::vector<std::string> Failures;
  void check(bool OK, const std::string &What) {
    ++Checked;
    if (!OK && Failures.size() < 1000)
      Failures.push_back(What);
  }
};

/// Per-run accuracy: micro-averaged over every class, scored against the
/// generator's annotations with eval::scorePackage.
struct Accuracy {
  eval::ClassStats All;
  void add(const Item &It, const std::vector<VulnReport> &Reports) {
    for (VulnType T : {VulnType::CommandInjection, VulnType::CodeInjection,
                       VulnType::PathTraversal, VulnType::PrototypePollution})
      All += eval::scorePackage(It.Truth, Reports, T);
  }
};

/// The known answers a workload carries in its items (async twins, tree
/// chains and twins, the soundness valve).
void checkKnownAnswer(Gate &G, const Item &It, const Sample &S) {
  switch (It.Kind) {
  case ItemKind::Package:
    return;
  case ItemKind::AsyncVuln:
  case ItemKind::TreeVuln: {
    bool Found = false;
    for (const workload::Annotation &A : It.Truth.Annotations)
      for (const VulnReport &R : S.Reports)
        Found |= R.Type == A.Type && R.SinkLoc.Line == A.SinkLine;
    G.check(Found, It.Name + ": annotated sink not reported");
    return;
  }
  case ItemKind::AsyncBenign:
  case ItemKind::TreeBenign:
    G.check(S.Reports.empty(), It.Name + ": benign twin reported " +
                                   std::to_string(S.Reports.size()));
    return;
  case ItemKind::TreeValve:
    G.check(S.PruneReason.find(std::string(queries::cweOf(It.TreeType)) +
                               ":pruned") == std::string::npos,
            It.Name + ": query pruned through the soundness valve: " +
                S.PruneReason);
    return;
  }
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Metrics[I].Value);
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
};

/// Driver-layer figures from ProcessPool batches.
struct PoolStats {
  std::vector<double> SetupSeconds; ///< run() entry to first dispatch
  std::vector<double> QueueWaitMs;  ///< batch start to each dispatch
  double WallSeconds = 0;
  double JobSecondsSum = 0; ///< supervisor dispatch-to-verdict, summed
  double JobCount = 0;
  double ScanSecondsSum = 0; ///< in-worker scan time, summed
  uint64_t Spawns = 0;
  unsigned Jobs = 0;
};

/// Workers for the pool: two, or one on a single-core host. On a 4-core
/// host, 4 workers drained ~60% more packages per second but swung by a
/// quarter from run to run (the supervisor and the workers compete for the
/// same cores); 2 workers held within about 7%.
unsigned poolJobs() {
  long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<unsigned>(std::clamp<long>(N, 1, 2));
}

/// Scans items [First, First+Count) through one persistent ProcessPool
/// run, appending samples and driver figures.
void runPoolBatch(Corpus &C, size_t First, size_t Count,
                  const scanner::ScanOptions &Scan, PoolStats &PS,
                  std::vector<Sample> &Out) {
  std::vector<driver::BatchInput> Inputs;
  for (size_t I = First; I < First + Count; ++I)
    Inputs.push_back({C.at(I).Name, C.at(I).Truth.Files});

  driver::PoolOptions PO;
  PO.Batch.Scan = Scan;
  PO.Jobs = poolJobs();
  PO.Persistent = true;
  Clock::time_point T0;
  std::optional<Clock::time_point> FirstDispatch;
  PO.Batch.OnPackageStart = [&](const std::string &) {
    Clock::time_point Now = Clock::now();
    if (!FirstDispatch)
      FirstDispatch = Now;
    PS.QueueWaitMs.push_back(
        std::chrono::duration<double, std::milli>(Now - T0).count());
  };
  obs::HistogramSnapshotMap HBefore = obs::snapshotHistograms();
  uint64_t SpawnsBefore = obs::counters::WorkerSpawned.value();

  T0 = Clock::now();
  driver::BatchSummary Sum = driver::ProcessPool(std::move(PO)).run(Inputs);
  double Wall = secondsSince(T0);

  PS.Jobs = poolJobs();
  PS.WallSeconds += Wall;
  PS.SetupSeconds.push_back(
      FirstDispatch
          ? std::chrono::duration<double>(*FirstDispatch - T0).count()
          : Wall);
  PS.Spawns += obs::counters::WorkerSpawned.value() - SpawnsBefore;
  obs::HistogramSnapshotMap HDelta =
      obs::histogramDelta(HBefore, obs::snapshotHistograms());
  auto Job = HDelta.find("worker.job_us");
  if (Job != HDelta.end()) {
    PS.JobSecondsSum += Job->second.mean() * Job->second.count() / 1e6;
    PS.JobCount += static_cast<double>(Job->second.count());
  }

  for (size_t K = 0; K < Sum.Outcomes.size(); ++K) {
    const driver::BatchOutcome &B = Sum.Outcomes[K];
    Sample S = sampleOf(First + K, B.Seconds, B.Result);
    S.Crashed = B.Status == driver::BatchStatus::Failed;
    S.Undecided |= S.Crashed;
    PS.ScanSecondsSum += B.Seconds;
    Out.push_back(std::move(S));
  }
}

/// The whole in-process set-up, the evaluation's scan configuration plus
/// the Scanner built from it, timed as batches of 64 constructions. One
/// batch takes well under a millisecond, so the run times one every
/// SetupEvery seconds between scans and reports the median over the run:
/// batches taken back to back would all see the same moment of the host's
/// speed, which drifts by a fifth over tens of seconds.
class SetupTimer {
public:
  static constexpr double SetupEvery = 0.1;
  static constexpr size_t MinBatches = 31;

  SetupTimer() {
    // Untimed warm-up: a cold first batch otherwise sets the figure.
    for (int J = 0; J < 1024; ++J)
      construct();
  }

  /// Times one batch if SetupEvery seconds have passed since the last.
  void tick() {
    if (Batches.empty() || secondsSince(Last) >= SetupEvery)
      batch();
  }

  /// The median batch, after topping up to MinBatches on short runs.
  double seconds() {
    while (Batches.size() < MinBatches)
      batch();
    return median(Batches);
  }

private:
  std::vector<double> Batches;
  Clock::time_point Last;

  static void construct() {
    scanner::Scanner S(eval::HarnessOptions::defaults().Scan);
    asm volatile("" : : "r"(&S) : "memory");
  }
  void batch() {
    constexpr int Inner = 64;
    Clock::time_point T0 = Clock::now();
    for (int J = 0; J < Inner; ++J)
      construct();
    Last = Clock::now();
    Batches.push_back(std::chrono::duration<double>(Last - T0).count() /
                      Inner);
  }
};

int run(const Options &O) {
  const scanner::ScanOptions Scan = eval::HarnessOptions::defaults().Scan;
  Corpus C(O.Workload, O.Seed);
  bool Pool = O.Workload == "collected_pool";
  Gate G;
  PoolStats PS;

  // Set-up happens before the first package is dispatched: scanner
  // construction in process (timed between scans, see SetupTimer), worker
  // forks for the pool (measured per pool batch, below).
  C.at(0); // first chunk generated outside every timed region
  std::optional<SetupTimer> InProcSetup;
  if (!Pool)
    InProcSetup.emplace();

  // Traced-run accumulators.
  Mirror Sum;
  double E2ESeconds = 0, Unattributed = 0;
  size_t Traced = 0, BuildBudget = 0, QueryBudget = 0, ImportSkipped = 0,
         PrunedClasses = 0, Retries = 0;
  double TracedKLoC = 0;
  std::vector<std::pair<double, double>> LocEdges;

  auto traceOne = [&](const Item &It, const Sample &S) {
    Mirror M = mirrorScan(It, Scan);
    ++Traced;
    E2ESeconds += S.Seconds;
    Unattributed += S.Seconds - M.layerSeconds();
    Sum.Flatten += M.Flatten;
    Sum.Parse += M.Parse;
    Sum.Normalize += M.Normalize;
    Sum.Lower += M.Lower;
    Sum.Prune += M.Prune;
    Sum.Build += M.Build;
    Sum.Import += M.Import;
    for (int K = 0; K < queries::NumVulnTypes; ++K)
      Sum.Query[K] += M.Query[K];
    Sum.Wall += M.Wall;
    Sum.AstNodes += M.AstNodes;
    Sum.Stmts += M.Stmts;
    Sum.Nodes += M.Nodes;
    Sum.Edges += M.Edges;
    Sum.Rels += M.Rels;
    Sum.BuildWork += M.BuildWork;
    Sum.QuerySteps += M.QuerySteps;
    Sum.Backtracks += M.Backtracks;
    BuildBudget += M.BuildBudgetHit;
    QueryBudget += M.QueryBudgetHit;
    ImportSkipped += !M.Imported;
    PrunedClasses += M.Pruned;
    Retries += S.Retries;
    TracedKLoC += It.LoC / 1000.0;
    LocEdges.emplace_back(static_cast<double>(It.LoC),
                          static_cast<double>(M.Edges));

    // Gate: a package the scanner finished at level 0 must come out of the
    // mirror identically; a retried one must show its budget hit here too.
    bool MirrorHit = M.BuildBudgetHit || M.QueryBudgetHit;
    G.check(MirrorHit == (S.Retries > 0),
            It.Name + ": mirror budget hit disagrees with scanner retries");
    if (S.Retries == 0 && !S.Undecided) {
      G.check(reportKeys(M.Reports) == reportKeys(S.Reports),
              It.Name + ": mirror reports differ from the scanner's");
      G.check(M.Nodes == S.Nodes && M.Edges == S.Edges,
              It.Name + ": mirror MDG size differs from the scanner's");
    }
  };

  // Per-item accounting and known answers, done as each item is scanned
  // so scanned chunks can be dropped.
  Accuracy Acc;
  size_t N = 0, Failed = 0, Undecided = 0, LoC = 0;
  std::vector<double> ScanMs;
  auto account = [&](const Item &It, const Sample &Smp) {
    ++N;
    Failed += Smp.Crashed;
    Undecided += Smp.Undecided;
    LoC += It.LoC;
    ScanMs.push_back(Smp.Seconds * 1e3);
    Acc.add(It, Smp.Reports);
    checkKnownAnswer(G, It, Smp);
  };

  scanner::Scanner S(Scan);
  Clock::time_point RunStart = Clock::now();
  double ScanWall = 0; // wall time spent scanning (corpus generation excluded)
  size_t Next = 0;

  if (Pool) {
    // Batches through fresh pools until the measured time is spent; with
    // --trace 1 the pool gets a ninth of it and the rest goes to the
    // in-process scanner and its traced mirror over the same packages.
    // Gate: pool verdicts equal in-process verdicts, for every pooled
    // package with --trace 1 and every sixteenth with --trace 0.
    constexpr size_t BatchSize = 160;
    double PoolBudget = O.Trace ? O.Seconds / 9 : O.Seconds;
    size_t Stride = O.Trace ? 1 : 16;
    do {
      C.at(Next + BatchSize - 1);
      std::vector<Sample> Batch;
      runPoolBatch(C, Next, BatchSize, Scan, PS, Batch);
      for (const Sample &P : Batch) {
        const Item &It = C.at(P.Index);
        account(It, P);
        if (P.Index % Stride)
          continue;
        Sample In = scanInProcess(S, It, P.Index);
        G.check(!P.Undecided && !In.Undecided
                    ? reportKeys(P.Reports) == reportKeys(In.Reports)
                    : P.Undecided == In.Undecided,
                It.Name + ": pool verdict differs from the in-process scan");
        if (O.Trace)
          traceOne(It, In);
      }
      Next += BatchSize;
      C.release(Next);
    } while (PS.WallSeconds < PoolBudget);
    ScanWall = PS.WallSeconds;
  } else {
    // In process: one scanner, packages in corpus order, until the time is
    // spent. vuln_large scans whole rounds, so every run covers the same
    // shapes, and stops at the round boundary nearest to --seconds.
    size_t Round = O.Workload == "vuln_large" ? LargeRoundSize : 1;
    Clock::time_point RoundStart = RunStart;
    while (true) {
      const Item &It = C.at(Next);
      Sample Smp = scanInProcess(S, It, Next);
      ScanWall += Smp.Seconds;
      account(It, Smp);
      if (O.Trace)
        traceOne(It, Smp);
      C.release(++Next);
      InProcSetup->tick();
      if (Next % Round)
        continue;
      double LastRound = secondsSince(RoundStart);
      RoundStart = Clock::now();
      if (secondsSince(RunStart) + LastRound / 2 >= O.Seconds)
        break;
    }
  }

  size_t Beyond95 = N - static_cast<size_t>(std::ceil(0.95 * N));

  std::fprintf(stderr,
               "scanbench: workload=%s seed=%llu trace=%d packages=%zu "
               "failed=%zu undecided=%zu scan_wall=%.3fs "
               "samples_beyond_p95=%zu%s gate_checks=%zu gate_failures=%zu\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               O.Trace ? 1 : 0, N, Failed, Undecided, ScanWall, Beyond95,
               Beyond95 < 10 ? " (fewer than 10: p95 is near the maximum)"
                             : "",
               G.Checked, G.Failures.size());
  for (const std::string &F : G.Failures)
    std::fprintf(stderr, "scanbench: gate: %s\n", F.c_str());

  std::vector<Metric> Metrics;
  if (!O.Trace) {
    double Setup = Pool ? median(PS.SetupSeconds) : InProcSetup->seconds();
    Metrics = {
        {"setup_s", Setup, "s"},
        {"pkg_per_s", N / ScanWall, "1/s"},
        {"kloc_per_s", LoC / 1000.0 / ScanWall, "kloc/s"},
        {"scan_p50_ms", median(ScanMs), "ms"},
        {"scan_p95_ms", percentile(ScanMs, 0.95), "ms"},
        {"decided_share", 1.0 - static_cast<double>(Undecided) / N, "share"},
        {"recall", Acc.All.recall(), "share"},
        {"precision", Acc.All.precision(), "share"},
        {"peak_rss_mb",
         Pool ? childrenPeakRssMB() : selfPeakRssMB(), "MB"},
    };
  } else {
    double T = Traced ? static_cast<double>(Traced) : 1;
    auto ms = [&](double Seconds) { return Seconds * 1e3 / T; };
    double Queries = 0;
    for (double Q : Sum.Query)
      Queries += Q;
    size_t Imported = Traced - ImportSkipped;
    double JobMs = PS.JobCount ? PS.JobSecondsSum * 1e3 / PS.JobCount : 0;
    double PoolScanMs = PS.JobCount ? PS.ScanSecondsSum * 1e3 / PS.JobCount : 0;
    double Busy = PS.JobSecondsSum;
    double Capacity = PS.WallSeconds * PS.Jobs;
    Metrics = {
        {"frontend.parse_ms", ms(Sum.Parse), "ms/pkg"},
        {"frontend.ast_nodes", Sum.AstNodes / T, "count/pkg"},
        {"core.normalize_ms", ms(Sum.Normalize), "ms/pkg"},
        {"core.lower_ms", ms(Sum.Lower), "ms/pkg"},
        {"core.stmts", Sum.Stmts / T, "count/pkg"},
        {"analysis.prune_ms", ms(Sum.Prune), "ms/pkg"},
        {"analysis.classes_pruned_share",
         PrunedClasses / (T * queries::NumVulnTypes), "share"},
        {"analysis.import_skipped_share", ImportSkipped / T, "share"},
        {"analysis.flatten_ms", ms(Sum.Flatten), "ms/pkg"},
        {"analysis.build_ms", ms(Sum.Build), "ms/pkg"},
        {"analysis.build_abstract_stmts", Sum.BuildWork / T, "count/pkg"},
        {"analysis.build_budget_hits", static_cast<double>(BuildBudget),
         "count"},
        {"mdg.nodes", Sum.Nodes / T, "count/pkg"},
        {"mdg.edges", Sum.Edges / T, "count/pkg"},
        {"mdg.edges_per_kloc", TracedKLoC ? Sum.Edges / TracedKLoC : 0,
         "count/kloc"},
        {"mdg.edge_growth_exponent", logLogSlope(LocEdges), "ratio"},
        {"graphdb.import_ms", ms(Sum.Import), "ms/pkg"},
        {"graphdb.rels", Imported ? double(Sum.Rels) / Imported : 0,
         "count/import"},
        {"queries.ms", ms(Queries), "ms/pkg"},
        {"queries.cwe22_ms",
         ms(Sum.Query[classIndex(VulnType::PathTraversal)]), "ms/pkg"},
        {"queries.cwe78_ms",
         ms(Sum.Query[classIndex(VulnType::CommandInjection)]), "ms/pkg"},
        {"queries.cwe94_ms",
         ms(Sum.Query[classIndex(VulnType::CodeInjection)]), "ms/pkg"},
        {"queries.cwe1321_ms",
         ms(Sum.Query[classIndex(VulnType::PrototypePollution)]), "ms/pkg"},
        {"queries.steps", Sum.QuerySteps / T, "count/pkg"},
        {"queries.backtracks", Sum.Backtracks / T, "count/pkg"},
        {"queries.budget_hits", static_cast<double>(QueryBudget), "count"},
        {"scanner.retries", static_cast<double>(Retries), "count"},
        {"scanner.unattributed_ms", ms(Unattributed), "ms/pkg"},
        {"driver.queue_wait_ms_p50", median(PS.QueueWaitMs), "ms"},
        {"driver.queue_wait_ms_p95", percentile(PS.QueueWaitMs, 0.95), "ms"},
        {"driver.job_ms", JobMs, "ms"},
        {"driver.ipc_ms", Pool ? JobMs - PoolScanMs : 0, "ms"},
        {"driver.idle_share", Capacity > 0 ? 1 - Busy / Capacity : 0,
         "share"},
        {"driver.worker_spawns", static_cast<double>(PS.Spawns), "count"},
        {"bench.trace_overhead_ratio", E2ESeconds ? Sum.Wall / E2ESeconds : 0,
         "ratio"},
    };
  }

  bool Correct = G.Failures.empty() && N > 0;
  printResult(Correct, N, Failed, Metrics);
  return Correct ? 0 : 1;
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "scanbench: %s\nusage: scanbench --workload "
               "<vuln_small|vuln_large|collected_pool|linked_trees> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               Msg);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (*End)
        usage("--seed takes a non-negative integer");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (*End || !(O.Seconds > 0))
        usage("--seconds takes a positive number");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWorkload ||
      std::find(std::begin(WorkloadNames), std::end(WorkloadNames),
                O.Workload) == std::end(WorkloadNames))
    usage("--workload names one of the four workloads");
  return run(O);
}
