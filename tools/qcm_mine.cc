// qcm_mine: command-line maximal quasi-clique miner.
//
// Load a SNAP-format edge list (or generate a synthetic graph), mine all
// maximal gamma-quasi-cliques serially or on the simulated G-thinker
// cluster, and write results / statistics.
//
// Usage (`qcm_mine --help` lists every flag with its default):
//   qcm_mine --input graph.txt --gamma 0.9 --min-size 10 [flags]
//   qcm_mine --gen-planted n=5000,communities=10,size=16..20,density=0.95
//            --gamma 0.9 --min-size 12 --machines 2 --threads 2
//
// The stderr summary always includes "result-digest: <16 hex>" -- the
// canonical-order FNV digest of the result set, comparable across serial,
// simulated and multi-process (qcm_cluster) runs.

#include <cstdio>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/graph_source.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/trace.h"

int main(int argc, char** argv) {
  using namespace qcm;
  GraphSource source;
  std::string input_snapshot;
  bool serial = false;
  std::string output;
  bool no_filter = false;
  bool stats = false;
  std::string stats_json_path;
  LogLevel log_level = GetLogLevel();
  EngineConfig config;
  config.num_machines = 2;

  FlagSet flags(
      "qcm_mine (--input PATH | --input-snapshot PATH | --gen-planted SPEC) "
      "[flags]");
  RegisterGraphSourceFlags(&flags, &source);
  flags.String("--input-snapshot", &input_snapshot, "PATH",
               "qcm_pack .qcsr snapshot (checksummed binary CSR; loads "
               "without text parsing)");
  flags.Bool("--serial", &serial, "single-thread reference miner");
  RegisterMachineCountFlag(&flags, &config);
  RegisterEngineFlags(&flags, &config);
  flags.String("--output", &output, "PATH",
               "write one result per line (\"v1 v2 ...\"), sets sorted "
               "lexicographically");
  flags.Bool("--no-filter", &no_filter,
             "report raw candidates (skip the maximality filter)");
  flags.Bool("--stats", &stats, "print engine/pruning statistics");
  flags.String("--stats-json", &stats_json_path, "PATH",
               "write the EngineReport as JSON (\"-\" = stdout)");
  flags.Enum("--log-level", &log_level, LogLevelNames(),
             "log threshold (QCM_LOG_LEVEL sets the default)");
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  const int sources = (source.input.empty() ? 0 : 1) +
                      (input_snapshot.empty() ? 0 : 1) +
                      (source.gen_planted.empty() ? 0 : 1);
  if (sources != 1) {
    return flags.UsageError(
        "exactly one of --input / --input-snapshot / --gen-planted is "
        "required");
  }
  if (serial && !stats_json_path.empty()) {
    return flags.UsageError("--stats-json requires the engine (not --serial)");
  }
  if (Status valid = config.Validate(); !valid.ok()) {
    return flags.UsageError("invalid configuration: " + valid.ToString());
  }
  SetLogLevel(log_level);
  if (!config.trace_out.empty()) {
    trace::Start(static_cast<size_t>(config.trace_buffer_kb));
    trace::SetThreadName("main");
  }

  // ---- Load or generate the graph. ----
  Graph graph;
  if (!input_snapshot.empty()) {
    // Resident load from a qcm_pack .qcsr: no text parsing, checksummed.
    auto snap = CsrSnapshot::Open(input_snapshot);
    if (!snap.ok()) {
      std::fprintf(stderr, "snapshot open failed: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    auto materialized = (*snap)->ToGraph();
    if (!materialized.ok()) {
      std::fprintf(stderr, "snapshot load failed: %s\n",
                   materialized.status().ToString().c_str());
      return 1;
    }
    graph = std::move(materialized).value();
  } else {
    auto loaded = LoadGraphSource(source);
    if (!loaded.ok()) {
      std::fprintf(stderr, "graph load failed: %s\n",
                   loaded.status().ToString().c_str());
      return ExitCodeFor(loaded.status());
    }
    graph = std::move(loaded->graph);
  }
  std::fprintf(stderr, "graph: %u vertices, %lu edges\n",
               graph.NumVertices(),
               static_cast<unsigned long>(graph.NumEdges()));

  std::vector<VertexSet> candidates;
  std::string stats_json;
  double seconds = 0;
  if (serial) {
    VectorSink sink;
    SerialMiner miner(config.mining);
    auto report = miner.Run(graph, &sink);
    if (!report.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    candidates = std::move(sink.results());
    seconds = report->total_seconds;
    if (stats) {
      std::fprintf(stderr,
                   "serial: %lu roots, %lu search nodes, %lu candidates, "
                   "k-core %lu, build %.3f s, mine %.3f s\n",
                   static_cast<unsigned long>(report->roots_processed),
                   static_cast<unsigned long>(report->stats.nodes_explored),
                   static_cast<unsigned long>(report->stats.emitted),
                   static_cast<unsigned long>(report->kcore_size),
                   report->build_seconds, report->mine_seconds);
      std::fprintf(
          stderr,
          "kernels: %lu dense / %lu sparse tasks, %lu bitset words "
          "touched\n",
          static_cast<unsigned long>(report->stats.dense_tasks),
          static_cast<unsigned long>(report->stats.sparse_tasks),
          static_cast<unsigned long>(report->stats.bitset_words_touched));
    }
  } else {
    ParallelMiner miner(config);
    auto result = miner.Run(graph);
    if (!result.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    candidates = std::move(result->report.results);
    seconds = result->report.wall_seconds;
    if (!stats_json_path.empty()) {
      stats_json = EngineReportJson(result->report);
    }
    if (stats) {
      const EngineReport& r = result->report;
      std::fprintf(stderr,
                   "engine: %lu tasks (%lu big/%lu small), spill %lu "
                   "tasks/%s, steals %lu, cache %lu/%lu (%.1f%% hit), busy "
                   "max/min %.2f, peak RSS %s\n",
                   static_cast<unsigned long>(r.counters.tasks_completed),
                   static_cast<unsigned long>(r.counters.big_tasks),
                   static_cast<unsigned long>(r.counters.small_tasks),
                   static_cast<unsigned long>(r.counters.spilled_tasks),
                   HumanBytes(r.counters.spill_bytes_written).c_str(),
                   static_cast<unsigned long>(r.counters.stolen_tasks),
                   static_cast<unsigned long>(r.counters.cache_hits),
                   static_cast<unsigned long>(r.counters.cache_misses),
                   100.0 * r.counters.CacheHitRatio(), r.BusyImbalance(),
                   HumanBytes(r.peak_rss_bytes).c_str());
      std::fprintf(stderr,
                   "pulls: %lu suspensions, %lu rounds, %lu batches, %lu "
                   "vertices/%s pulled, %lu pin hits, fallback %s\n",
                   static_cast<unsigned long>(r.counters.task_suspensions),
                   static_cast<unsigned long>(r.counters.pull_rounds),
                   static_cast<unsigned long>(r.counters.pull_batches),
                   static_cast<unsigned long>(r.counters.pulled_vertices),
                   HumanBytes(r.counters.pull_bytes).c_str(),
                   static_cast<unsigned long>(r.counters.pin_hits),
                   HumanBytes(r.counters.remote_bytes).c_str());
      std::fprintf(
          stderr,
          "prefetch: %lu tasks staged, %lu vertices issued, %lu pins at "
          "first schedule, %lu first-round pin hits\n",
          static_cast<unsigned long>(r.counters.prefetch_tasks),
          static_cast<unsigned long>(r.counters.prefetch_issued),
          static_cast<unsigned long>(r.counters.first_schedule_pins),
          static_cast<unsigned long>(r.counters.prefetch_hits));
      const int req = static_cast<int>(MessageType::kPullRequest);
      const int resp = static_cast<int>(MessageType::kPullResponse);
      const int steal = static_cast<int>(MessageType::kStealBatch);
      std::fprintf(
          stderr,
          "comm: %lu msgs (%lu req/%lu resp/%lu steal), %s sent, "
          "mean delivery %.3f ms, overlap %.1f%%, peak in-flight %s, "
          "peak depth %lu, steal master %.3f s idle/%.3f s active\n",
          static_cast<unsigned long>(r.counters.MessagesSent()),
          static_cast<unsigned long>(r.counters.msg_sent[req]),
          static_cast<unsigned long>(r.counters.msg_sent[resp]),
          static_cast<unsigned long>(r.counters.msg_sent[steal]),
          HumanBytes(r.counters.MessageBytes()).c_str(),
          1e3 * r.counters.MeanDeliveryLatencySeconds(),
          100.0 * r.counters.MessageOverlapRatio(),
          HumanBytes(r.counters.msg_inflight_bytes_peak).c_str(),
          static_cast<unsigned long>(r.counters.msg_queue_depth_peak),
          1e-6 * static_cast<double>(r.counters.steal_idle_usec),
          1e-6 * static_cast<double>(r.counters.steal_active_usec));
      std::fprintf(
          stderr,
          "kernels: %lu dense / %lu sparse tasks, %lu bitset words "
          "touched\n",
          static_cast<unsigned long>(r.mining.dense_tasks),
          static_cast<unsigned long>(r.mining.sparse_tasks),
          static_cast<unsigned long>(r.mining.bitset_words_touched));
    }
  }

  std::vector<VertexSet> results =
      no_filter ? std::move(candidates)
                     : FilterMaximal(std::move(candidates));
  std::fprintf(stderr, "%zu %s quasi-cliques in %.3f s\n", results.size(),
               no_filter ? "candidate" : "maximal", seconds);
  // Canonical order + digest + output file, shared with qcm_cluster so
  // the two tools' bytes are comparable by construction.
  CanonicalizeStats canon;
  auto digest = EmitCanonicalResults(&results, output, &canon);
  if (!digest.ok()) {
    std::fprintf(stderr, "%s\n", digest.status().ToString().c_str());
    return 1;
  }
  if (stats) {
    std::fprintf(stderr,
                 "canonicalize: %lu sets already sorted, %lu re-sorted, "
                 "vector sort %s, ~%lu comparisons saved\n",
                 static_cast<unsigned long>(canon.sets_already_sorted),
                 static_cast<unsigned long>(canon.sets_resorted),
                 canon.vector_sort_skipped ? "skipped" : "needed",
                 static_cast<unsigned long>(canon.comparisons_saved));
  }

  if (!stats_json_path.empty()) {
    FILE* f = stats_json_path == "-"
                  ? stdout
                  : std::fopen(stats_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   stats_json_path.c_str());
      return 1;
    }
    std::fputs(stats_json.c_str(), f);
    if (f != stdout) std::fclose(f);
  }

  // Single-process run: the whole timeline is local, so merge straight
  // from the in-memory rings (no fragment files).
  if (!config.trace_out.empty()) {
    std::vector<std::string> events;
    const std::string drained = trace::DrainJsonLines(/*pid=*/0);
    size_t start = 0;
    while (start < drained.size()) {
      size_t end = drained.find('\n', start);
      if (end == std::string::npos) end = drained.size();
      if (end > start) events.push_back(drained.substr(start, end - start));
      start = end + 1;
    }
    Status ts = trace::MergeFragments({}, events, config.trace_out);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   ts.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%zu events, %lu dropped)\n",
                 config.trace_out.c_str(), events.size(),
                 static_cast<unsigned long>(trace::DroppedRecords()));
  }
  return 0;
}
