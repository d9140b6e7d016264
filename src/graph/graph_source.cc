#include "graph/graph_source.h"

#include <utility>

#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "util/flags.h"
#include "util/timer.h"

namespace qcm {

void RegisterGraphSourceFlags(FlagSet* flags, GraphSource* source) {
  flags->String("--input", &source->input, "PATH",
                "SNAP edge list ('#' comments, \"u v\" lines)");
  flags->String("--gen-planted", &source->gen_planted, "SPEC",
                "synthetic planted-community graph; SPEC is comma-separated "
                "key=value pairs: n, communities, size=LO..HI, density, "
                "overlap, edges (ER background)");
  flags->Int("--seed", &source->seed, "generator seed");
}

StatusOr<SourcedGraph> LoadGraphSource(const GraphSource& source) {
  if (!source.HasExactlyOne()) {
    return Status::InvalidArgument(
        "exactly one of --input / --gen-planted is required");
  }
  SourcedGraph out;
  if (!source.input.empty()) {
    auto loaded = LoadEdgeList(source.input);
    if (!loaded.ok()) return loaded.status();
    out.graph = std::move(loaded->graph);
    out.original_ids = std::move(loaded->original_ids);
    return out;
  }
  auto spec = ParsePlantedSpec(source.gen_planted, source.seed);
  if (!spec.ok()) return spec.status();
  auto generated = GenPlantedCommunities(spec.value());
  if (!generated.ok()) return generated.status();
  out.graph = std::move(generated).value();
  out.build_seed = source.seed;
  return out;
}

StatusOr<PackReport> PackGraphSource(const GraphSource& source,
                                     const std::string& path,
                                     uint32_t page_size) {
  PackReport report;
  WallTimer load_timer;
  auto loaded = LoadGraphSource(source);
  if (!loaded.ok()) return loaded.status();
  report.load_seconds = load_timer.Seconds();
  report.num_vertices = loaded->graph.NumVertices();
  report.num_edges = loaded->graph.NumEdges();

  CsrWriteOptions opts;
  opts.page_size = page_size;
  opts.build_seed = loaded->build_seed;
  WallTimer pack_timer;
  QCM_RETURN_IF_ERROR(
      WriteCsrSnapshot(loaded->graph, loaded->original_ids, path, opts));
  report.pack_seconds = pack_timer.Seconds();
  return report;
}

}  // namespace qcm
