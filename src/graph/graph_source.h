// The tools' graph input: a SNAP edge list (--input) or the seeded
// planted-community generator (--gen-planted + --seed). One loader turns
// either into a Graph, and one pack path writes it as a .qcsr snapshot,
// so qcm_mine, qcm_pack and qcm_cluster build the same graph -- and the
// same snapshot bytes -- from the same flags.

#ifndef QCM_GRAPH_GRAPH_SOURCE_H_
#define QCM_GRAPH_GRAPH_SOURCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace qcm {

class FlagSet;

struct GraphSource {
  /// Exactly one of these is non-empty.
  std::string input;        // SNAP edge-list path
  std::string gen_planted;  // ParsePlantedSpec spec string
  uint64_t seed = 1;        // generator seed (ignored for `input`)

  bool HasExactlyOne() const { return input.empty() != gen_planted.empty(); }
};

/// Binds --input, --gen-planted and --seed to `source`.
void RegisterGraphSourceFlags(FlagSet* flags, GraphSource* source);

struct SourcedGraph {
  Graph graph;
  /// Dense id -> external id for an edge list; empty (identity) for a
  /// generated graph.
  std::vector<uint64_t> original_ids;
  /// The generator seed stamped into a snapshot header; 0 for --input.
  uint64_t build_seed = 0;
};

/// Loads or generates the graph. A bad planted spec is InvalidArgument.
StatusOr<SourcedGraph> LoadGraphSource(const GraphSource& source);

struct PackReport {
  uint32_t num_vertices = 0;
  uint64_t num_edges = 0;
  double load_seconds = 0;
  double pack_seconds = 0;
};

/// Loads `source` and writes it to `path` as a .qcsr snapshot with the
/// given page size (the CsrWriteOptions rules apply). The graph is dropped
/// before returning: a packer never holds it resident afterwards.
StatusOr<PackReport> PackGraphSource(const GraphSource& source,
                                     const std::string& path,
                                     uint32_t page_size);

}  // namespace qcm

#endif  // QCM_GRAPH_GRAPH_SOURCE_H_
