// perfbench_driver: the timing half of the miner's benchmark (run.py is
// the other half: it builds this, picks the workload, turns the raw
// samples printed here into the metrics named in BENCHMARK.json, and
// checks them).
//
//   perfbench_driver gen --spec SPEC --seed N --out GRAPH.txt
//       Writes the planted graph SPEC under labeling N (see Gen).
//
//   perfbench_driver run --mode inproc|cluster --spec SPEC --seed N
//       --gamma F --min-size N --seconds S --trace 0|1 --out-dir DIR
//       [--relabel-per-solve 0|1] [--serial-per-round N] [--threads N]
//       [--expect-digest HEX]
//       [--bin-dir DIR --workers N --budget BYTES --page-size BYTES]
//       Has `gen` write the planted graph SPEC (qcm_mine's --gen-planted
//       syntax, generator seed 1) as a SNAP edge list with its vertices
//       relabeled by a permutation drawn from --seed; the
//       system only ever reads that file. Sets the graph up (LoadEdgeList
//       in-process, qcm_pack for the cluster) several times, mines a
//       reference digest with SerialMiner (untimed), then for S seconds
//       alternates solves of the system (ParallelMiner::Run or a forked
//       qcm_cluster) with N serial solves (default 1). --relabel-per-solve
//       draws a fresh labeling before every round. Every result is mapped
//       back to the generator's vertex ids and checked against the
//       reference, so all labelings must agree. --trace 1 replaces the serial solves with an
//       instrumented serial replay and interleaves traced solves. Prints
//       one JSON object of raw samples.
//
// Spans are recorded by this file only, around calls into each layer's
// public functions; nothing inside src/ is instrumented for the benchmark.

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/edge_io.h"
#include "graph/ego_builder.h"
#include "graph/generators.h"
#include "graph/kcore.h"
#include "gthinker/engine_config.h"
#include "gthinker/metrics.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/mining_context.h"
#include "quick/recursive_mine.h"
#include "quick/serial_miner.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using namespace qcm;
using Clock = std::chrono::steady_clock;

// Steady-clock microseconds: the same clock as the engine's trace records
// (util/trace.h), so benchmark spans line up with engine spans.
uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double UserSysSeconds(const struct rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double SelfCpuSeconds() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return UserSysSeconds(ru);
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// The result is one JSON line; embedded reports are multi-line.
std::string OneLine(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

// ---------------------------------------------------------------------------
// Benchmark-side spans, written as Chrome trace-event lines under their own
// process track so Perfetto shows them next to the engine's.
// ---------------------------------------------------------------------------

constexpr int kBenchPid = 100;

class Spans {
 public:
  void Add(const std::string& name, uint64_t begin_us, uint64_t end_us,
           const std::string& args_json = "") {
    std::string line = "{\"name\":" + Quote(name) +
                       ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":" +
                       std::to_string(begin_us) +
                       ",\"dur\":" + std::to_string(end_us - begin_us) +
                       ",\"pid\":" + std::to_string(kBenchPid) + ",\"tid\":0";
    if (!args_json.empty()) line += ",\"args\":" + args_json;
    lines_.push_back(line + "}");
  }

  // Process/thread labels; ts 0 sorts them first in the merged file.
  std::vector<std::string> WithMetadata() const {
    std::vector<std::string> out = lines_;
    out.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" +
                  std::to_string(kBenchPid) +
                  ",\"tid\":0,\"args\":{\"name\":\"perfbench\"}}");
    out.push_back("{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" +
                  std::to_string(kBenchPid) +
                  ",\"tid\":0,\"args\":{\"name\":\"driver\"}}");
    return out;
  }

 private:
  std::vector<std::string> lines_;
};

// ---------------------------------------------------------------------------
// Argument parsing: --key value pairs only.
// ---------------------------------------------------------------------------

struct Flags {
  std::map<std::string, std::string> kv;

  bool Parse(int argc, char** argv, int first) {
    for (int i = first; i < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
        std::fprintf(stderr, "perfbench_driver: bad argument %s\n", argv[i]);
        return false;
      }
      kv[argv[i] + 2] = argv[i + 1];
    }
    return true;
  }
  std::string Str(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  double Dbl(const std::string& k, double def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::atof(it->second.c_str());
  }
  long long Int(const std::string& k, long long def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::atoll(it->second.c_str());
  }
};

int Fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// Inputs: one planted graph under vertex labelings drawn from the seed.
// ---------------------------------------------------------------------------

// Labeling number `seed`: a uniform random permutation of [0, n)
// (Fisher-Yates), base id -> file id.
std::vector<VertexId> DrawLabeling(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> label(n);
  for (VertexId v = 0; v < n; ++v) label[v] = v;
  for (uint32_t i = n; i > 1; --i) {
    std::swap(label[i - 1], label[rng.Uniform(i)]);
  }
  return label;
}

// `gen`, run as a child process so the generator's memory never counts
// toward the measuring process: writes the planted graph SPEC (generator
// seed 1) under labeling --seed as a SNAP edge list.
int Gen(const Flags& f) {
  auto spec = ParsePlantedSpec(f.Str("spec"), /*seed=*/1);
  if (!spec.ok()) return Fail(spec.status().ToString());
  auto g = GenPlantedCommunities(*spec);
  if (!g.ok()) return Fail(g.status().ToString());
  const std::vector<VertexId> label = DrawLabeling(
      g->NumVertices(), static_cast<uint64_t>(f.Int("seed", 1)));
  const std::string path = f.Str("out");
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Fail("cannot write " + path);
  std::fprintf(file, "# relabeled planted graph: %u vertices, %" PRIu64
               " edges\n", g->NumVertices(), g->NumEdges());
  for (VertexId u = 0; u < g->NumVertices(); ++u) {
    for (VertexId v : g->Neighbors(u)) {
      if (u < v) std::fprintf(file, "%u %u\n", label[u], label[v]);
    }
  }
  if (std::fclose(file) != 0) return Fail("cannot write " + path);
  return 0;
}

// Digest of `sets` (ids of a loaded labeling) renamed back to generator
// ids through `to_base`: every labeling of one graph has the same digest.
// An id outside the graph yields 0, which no reference equals.
uint64_t BaseDigest(std::vector<VertexSet> sets,
                    const std::vector<VertexId>& to_base) {
  for (VertexSet& set : sets) {
    for (VertexId& v : set) {
      if (v >= to_base.size()) return 0;
      v = to_base[v];
    }
    std::sort(set.begin(), set.end());
  }
  std::sort(sets.begin(), sets.end());
  return ResultSetDigest(sets);
}

// ---------------------------------------------------------------------------
// Serial replay: SerialMiner::Run's loop re-driven from here so each layer
// call gets its own timer. Layer self-times plus `unattributed` sum to the
// replay's wall time.
// ---------------------------------------------------------------------------

struct Replay {
  double wall = 0, kcore_s = 0, ego_s = 0, mine_s = 0, filter_s = 0,
         digest_s = 0, top_root_s = 0;
  uint64_t ego_calls = 0, ego_nonempty = 0, ego_vertices = 0;
  uint64_t filter_in = 0;
  MiningStats stats;
  std::vector<VertexSet> maximal;  // FilterMaximal's output, loaded ids

  // Wall time outside the five layer timers.
  double Unattributed() const {
    return wall - (kcore_s + ego_s + mine_s + filter_s + digest_s);
  }

  std::string Json() const {
    return "{\"wall\":" + Num(wall) + ",\"kcore_s\":" + Num(kcore_s) +
           ",\"ego_s\":" + Num(ego_s) + ",\"mine_s\":" + Num(mine_s) +
           ",\"filter_s\":" + Num(filter_s) + ",\"digest_s\":" +
           Num(digest_s) + ",\"unattributed_s\":" + Num(Unattributed()) +
           ",\"top_root_s\":" + Num(top_root_s) +
           ",\"ego_calls\":" + std::to_string(ego_calls) +
           ",\"ego_nonempty\":" + std::to_string(ego_nonempty) +
           ",\"ego_vertices\":" + std::to_string(ego_vertices) +
           ",\"nodes\":" + std::to_string(stats.nodes_explored) +
           ",\"bitset_words\":" + std::to_string(stats.bitset_words_touched) +
           ",\"emitted\":" + std::to_string(stats.emitted) +
           ",\"filter_in\":" + std::to_string(filter_in) +
           ",\"maximal\":" + std::to_string(maximal.size()) + "}";
  }
};

// Roots whose mining time gets its own span in the trace; the rest are
// summarized on the enclosing "roots" span to keep the trace small.
constexpr size_t kTopRootSpans = 16;

Replay SerialReplay(const Graph& g, const MiningOptions& opt, Spans* spans) {
  struct RootSpan {
    double mine_s;
    VertexId root;
    uint64_t ego_begin, mine_begin, mine_end;
  };
  Replay r;
  const uint32_t k = opt.MinDegreeK();
  const uint64_t t0 = NowUs();

  uint64_t b = NowUs();
  std::vector<uint8_t> alive = KCoreMask(g, k);
  uint64_t e = NowUs();
  r.kcore_s = (e - b) * 1e-6;
  spans->Add("KCoreMask", b, e);

  EgoScratch scratch;
  scratch.Reset(g.NumVertices());
  GraphVertexSource source(&g, &alive);
  EgoBuilder builder(&scratch);
  builder.set_dense_threshold(opt.dense_threshold);
  MiningScratch mining_scratch;
  VectorSink sink;
  std::vector<RootSpan> roots;

  const uint64_t loop_begin = NowUs();
  for (VertexId root = 0; root < g.NumVertices(); ++root) {
    if (!alive[root]) continue;
    const uint64_t ego_begin = NowUs();
    LocalGraph ego = builder.BuildEgo(source, root, k, opt.min_size);
    const uint64_t mine_begin = NowUs();
    r.ego_s += (mine_begin - ego_begin) * 1e-6;
    ++r.ego_calls;
    if (ego.n() == 0) continue;
    ++r.ego_nonempty;
    r.ego_vertices += ego.n();

    MiningContext ctx(&ego, opt, &sink, &mining_scratch);
    const LocalId local_root = ego.FindLocal(root);
    std::vector<LocalId> ext;
    ext.reserve(ego.n() - 1);
    for (LocalId u = 0; u < ego.n(); ++u) {
      if (u != local_root) ext.push_back(u);
    }
    RecursiveMine(ctx, {local_root}, std::move(ext));
    const uint64_t mine_end = NowUs();
    const double mine_s = (mine_end - mine_begin) * 1e-6;
    r.mine_s += mine_s;
    r.top_root_s = std::max(r.top_root_s, mine_s);
    r.stats.Add(ctx.stats);
    roots.push_back({mine_s, root, ego_begin, mine_begin, mine_end});
  }
  const uint64_t loop_end = NowUs();
  spans->Add("roots", loop_begin, loop_end,
             "{\"EgoBuilder::BuildEgo_s\":" + Num(r.ego_s) +
                 ",\"RecursiveMine_s\":" + Num(r.mine_s) +
                 ",\"ego_calls\":" + std::to_string(r.ego_calls) + "}");
  const size_t top = std::min(kTopRootSpans, roots.size());
  std::partial_sort(roots.begin(), roots.begin() + top, roots.end(),
                    [](const RootSpan& a, const RootSpan& b) {
                      return a.mine_s > b.mine_s;
                    });
  for (size_t i = 0; i < top; ++i) {
    const RootSpan& rs = roots[i];
    const std::string args = "{\"root\":" + std::to_string(rs.root) + "}";
    spans->Add("EgoBuilder::BuildEgo", rs.ego_begin, rs.mine_begin, args);
    spans->Add("RecursiveMine", rs.mine_begin, rs.mine_end, args);
  }

  r.filter_in = sink.results().size();
  b = NowUs();
  r.maximal = FilterMaximal(std::move(sink.results()));
  e = NowUs();
  r.filter_s = (e - b) * 1e-6;
  spans->Add("FilterMaximal", b, e);

  b = NowUs();
  const uint64_t digest = ResultSetDigest(r.maximal);
  e = NowUs();
  r.digest_s = (e - b) * 1e-6;
  spans->Add("ResultSetDigest", b, e,
             "{\"digest\":\"" + Hex(digest) + "\"}");

  const uint64_t t1 = NowUs();
  r.wall = (t1 - t0) * 1e-6;
  spans->Add("serial_replay", t0, t1,
             "{\"unattributed_s\":" + Num(r.Unattributed()) + "}");
  return r;
}

// ---------------------------------------------------------------------------
// Child processes (gen, qcm_pack, qcm_cluster): fork/exec with stdout and
// stderr to a log, reaped with wait4 so CPU and peak RSS cover the whole
// process tree.
// ---------------------------------------------------------------------------

struct ChildRun {
  bool ok = false;
  double wall = 0, cpu = 0;
  long maxrss_kb = 0;
  std::string log;
};

ChildRun RunChild(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  ChildRun run;
  run.log = log_path;
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const auto start = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return run;
  if (pid == 0) {
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(cargv[0], cargv.data());
    std::_Exit(127);
  }
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  run.wall = Seconds(start);
  run.cpu = UserSysSeconds(ru);
  run.maxrss_kb = ru.ru_maxrss;
  run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return run;
}

// Reads qcm_cluster --output: one space-separated set a line.
std::vector<VertexSet> ReadSets(const std::string& path) {
  std::vector<VertexSet> sets;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    VertexSet s;
    uint64_t v = 0;
    while (ss >> v) s.push_back(static_cast<VertexId>(v));
    sets.push_back(std::move(s));
  }
  return sets;
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

struct Samples {
  std::vector<double> pack_s, load_s;
  std::vector<std::string> solves, serial, replays, errors;
  std::string union_filter = "null";
  uint64_t attempted = 0, failed = 0;
  long child_maxrss_kb = 0;

  void Check(const std::string& what, bool ok, uint64_t digest,
             uint64_t reference) {
    ++attempted;
    if (!ok) {
      ++failed;
      errors.push_back(what + " failed");
    } else if (digest != reference) {
      ++failed;
      errors.push_back(what + " digest " + Hex(digest) + " != reference " +
                       Hex(reference));
    }
  }
};

int Run(const std::string& self_exe, const Flags& f) {
  const std::string mode = f.Str("mode", "inproc");
  const bool cluster = mode == "cluster";
  if (!cluster && mode != "inproc") return Fail("unknown --mode " + mode);
  const std::string out_dir = f.Str("out-dir");
  const bool traced = f.Int("trace", 0) != 0;
  const bool relabel_per_solve = f.Int("relabel-per-solve", 0) != 0;
  // A cluster solve takes several serial solves' time; more serial solves
  // per round give the fastest of them (serial_s) more chances to run
  // uncontended on a shared host.
  const long long serial_per_round =
      std::max(1LL, f.Int("serial-per-round", 1));
  const double budget_s = f.Dbl("seconds", 10);
  if (out_dir.empty()) return Fail("--out-dir is required");
  if (cluster && relabel_per_solve) {
    return Fail("the cluster packs one labeling per run");
  }
  ::mkdir(out_dir.c_str(), 0755);

  MiningOptions mining;
  mining.gamma = f.Dbl("gamma", 0.85);
  mining.min_size = static_cast<uint32_t>(f.Int("min-size", 10));
  Status valid = mining.Validate();
  if (!valid.ok()) return Fail(valid.ToString());

  EngineConfig config;
  config.mining = mining;
  config.num_machines = 1;
  config.threads_per_machine = static_cast<int>(f.Int("threads", 4));
  // Spill files stay inside the output directory, not the system temp dir.
  config.spill_dir = out_dir + "/spill";

  Samples s;
  Spans spans;

  // ---- The input: the planted graph under a labeling drawn from --seed.
  // Round r mines labeling (seed << 20) + r; round 0 is the run's input.
  auto spec = ParsePlantedSpec(f.Str("spec"), /*seed=*/1);
  if (!spec.ok()) return Fail(spec.status().ToString());
  uint64_t labeling = static_cast<uint64_t>(f.Int("seed", 1)) << 20;
  const std::string input = out_dir + "/graph.txt";
  std::vector<VertexId> base_of_label;  // for the labeling in `input`
  auto write_input = [&]() -> Status {
    ChildRun gen = RunChild({self_exe, "gen", "--spec", f.Str("spec"), "--seed",
                             std::to_string(labeling), "--out", input},
                            out_dir + "/gen.log");
    if (!gen.ok) return Status::IOError("gen failed, see " + gen.log);
    const std::vector<VertexId> label =
        DrawLabeling(spec->num_vertices, labeling++);
    base_of_label.assign(label.size(), 0);
    for (VertexId v = 0; v < label.size(); ++v) base_of_label[label[v]] = v;
    return Status::OK();
  };
  Status written = write_input();
  if (!written.ok()) return Fail(written.ToString());

  // The graph the in-process solves mine, and its ids -> generator ids.
  Graph graph;
  std::vector<VertexId> to_base;
  auto load = [&]() -> Status {
    const uint64_t b = NowUs();
    auto loaded = LoadEdgeList(input);
    const uint64_t e = NowUs();
    spans.Add("LoadEdgeList", b, e);
    if (!loaded.ok()) return loaded.status();
    s.load_s.push_back((e - b) * 1e-6);
    graph = std::move(loaded->graph);
    to_base.resize(graph.NumVertices());
    for (VertexId d = 0; d < graph.NumVertices(); ++d) {
      to_base[d] = base_of_label[loaded->original_ids[d]];
    }
    return Status::OK();
  };

  // ---- Set-up: the input file to a graph ready to mine. ----
  // The cluster's set-up is qcm_pack; in-process it is LoadEdgeList. A
  // traced in-process run also times qcm_pack (graph.pack_s), and in
  // cluster mode the resident graph only serves the reference and the
  // serial baseline, so it is loaded (graph.load_s) once.
  const std::string bin = f.Str("bin-dir");
  const std::string snapshot = out_dir + "/graph.qcsr";
  const bool pack = cluster || (traced && !bin.empty());
  // kSetupReps set-ups; in-process, more (up to kMaxSetupReps) until
  // kSetupSeconds have gone, so a fast load still yields a steady median.
  constexpr int kSetupReps = 9;
  constexpr int kMaxSetupReps = 200;
  constexpr double kSetupSeconds = 2;
  const auto setup_start = Clock::now();
  for (int i = 0;; ++i) {
    const bool more = i < kSetupReps ||
                      (!cluster && i < kMaxSetupReps &&
                       Seconds(setup_start) < kSetupSeconds);
    if (!more) break;
    if (pack && i < kSetupReps) {
      const uint64_t b = NowUs();
      ChildRun run = RunChild({bin + "/qcm_pack", "--input", input, "--output",
                               snapshot, "--page-size",
                               f.Str("page-size", "4096"), "--quiet"},
                              out_dir + "/pack.log");
      spans.Add("qcm_pack", b, NowUs());
      if (!run.ok) return Fail("qcm_pack failed, see " + run.log);
      s.pack_s.push_back(run.wall);
    }
    if (cluster && i > 0) continue;
    Status loaded = load();
    if (!loaded.ok()) return Fail(loaded.ToString());
  }
  // Roots the engine spawns (QCApp::Spawn keeps deg(v) >= k): the base
  // that separates decomposed subtasks from roots in tasks_completed.
  uint64_t spawn_roots = 0;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    spawn_roots += graph.Degree(v) >= mining.MinDegreeK();
  }

  // ---- Reference digest: SerialMiner on the same input, untimed. ----
  uint64_t reference = 0;
  {
    VectorSink sink;
    auto report = SerialMiner(mining).Run(graph, &sink);
    if (!report.ok()) return Fail(report.status().ToString());
    reference = BaseDigest(FilterMaximal(std::move(sink.results())), to_base);
  }
  const uint64_t computed_reference = reference;
  if (!f.Str("expect-digest").empty()) {
    reference = std::strtoull(f.Str("expect-digest").c_str(), nullptr, 16);
  }

  // qcm_cluster over the packed snapshot, plus `extra` flags.
  auto cluster_argv = [&](std::vector<std::string> extra) {
    std::vector<std::string> argv = {
        bin + "/qcm_cluster", "--input", input, "--snapshot", snapshot,
        "--workers", f.Str("workers", "3"), "--threads", "1",
        "--gamma", Num(mining.gamma), "--min-size",
        std::to_string(mining.min_size), "--graph-memory-budget",
        f.Str("budget", "262144"), "--log-dir", out_dir + "/logs",
        "--checkpoint-dir", out_dir + "/ckpt"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return argv;
  };

  // ---- One solve of the system under test. ----
  int solve_index = 0;
  auto solve = [&](bool with_trace) {
    const int idx = solve_index++;
    const std::string label = "solve " + std::to_string(idx);
    const std::string traced_arg =
        std::string("{\"traced\":") + (with_trace ? "1" : "0") + "}";
    if (cluster) {
      const std::string stats =
          out_dir + "/cluster" + std::to_string(idx) + ".json";
      const std::string result = out_dir + "/result.txt";
      std::vector<std::string> extra = {"--stats-json", stats, "--output",
                                        result};
      if (with_trace) {
        extra.push_back("--trace-out");
        extra.push_back(out_dir + "/cluster.trace.json");
      }
      const uint64_t b = NowUs();
      ChildRun run = RunChild(cluster_argv(extra), out_dir + "/cluster.log");
      spans.Add("qcm_cluster", b, NowUs(), traced_arg);
      s.Check(label, run.ok, BaseDigest(ReadSets(result), to_base),
              reference);
      ::unlink(result.c_str());
      if (!run.ok) {
        std::rename(run.log.c_str(), (out_dir + "/cluster-failed" +
                                      std::to_string(idx) + ".log")
                                         .c_str());
      }
      s.child_maxrss_kb = std::max(s.child_maxrss_kb, run.maxrss_kb);
      s.solves.push_back("{\"wall\":" + Num(run.wall) +
                         ",\"cpu\":" + Num(run.cpu) +
                         ",\"traced\":" + (with_trace ? "1" : "0") +
                         ",\"stats_json\":" + Quote(stats) + "}");
      return;
    }
    if (with_trace) trace::Start(static_cast<size_t>(config.trace_buffer_kb));
    const double cpu0 = SelfCpuSeconds();
    const uint64_t b = NowUs();
    const auto start = Clock::now();
    auto result = ParallelMiner(config).Run(graph);
    const uint64_t digest = result.ok() ? ResultSetDigest(result->maximal) : 0;
    const double wall = Seconds(start);
    const double cpu = SelfCpuSeconds() - cpu0;
    spans.Add("ParallelMiner::Run", b, NowUs(), traced_arg);
    if (with_trace) {
      trace::Stop();
      // Keep the engine timeline of the first traced solve only. Every
      // traced solve starts from empty rings, like a fresh --trace-out run
      // (ResetForTest is the only call that frees the rings).
      const std::string path = out_dir + "/engine.trace.jsonl";
      struct stat st {};
      if (::stat(path.c_str(), &st) != 0) trace::WriteFragment(path, 0);
      trace::ResetForTest();
    }
    // `digest` is the system's own, in loaded ids, and part of solve_s; the
    // check renames the sets to generator ids outside the timed region.
    static_cast<void>(digest);
    s.Check(label, result.ok(),
            result.ok() ? BaseDigest(result->maximal, to_base) : 0,
            reference);
    if (!result.ok()) s.errors.back() += ": " + result.status().ToString();
    s.solves.push_back(
        "{\"wall\":" + Num(wall) + ",\"cpu\":" + Num(cpu) +
        ",\"traced\":" + (with_trace ? "1" : "0") + ",\"subtasks\":" +
        std::to_string(
            result.ok() ? result->report.mining.subtasks_spawned : 0) +
        ",\"report\":" +
        (result.ok() ? OneLine(EngineReportJson(result->report)) : "null") +
        "}");
  };

  auto serial = [&]() {
    const auto start = Clock::now();
    const uint64_t b = NowUs();
    VectorSink sink;
    auto report = SerialMiner(mining).Run(graph, &sink);
    std::vector<VertexSet> maximal = FilterMaximal(std::move(sink.results()));
    const double wall = Seconds(start);
    spans.Add("SerialMiner::Run", b, NowUs());
    s.Check("serial", report.ok(), BaseDigest(std::move(maximal), to_base),
            reference);
    s.serial.push_back(Num(wall));
  };

  auto replay = [&]() {
    Replay r = SerialReplay(graph, mining, &spans);
    s.replays.push_back(r.Json());
    s.Check("serial replay", true, BaseDigest(std::move(r.maximal), to_base),
            reference);
  };

  // ---- Measurement: `budget_s` seconds of interleaved solves. ----
  const auto measure_start = Clock::now();
  solve(false);  // first solve in the process: the cold sample
  if (traced && cluster) {
    // The launcher's union filter, replayed here on the exact candidate
    // union it would filter (qcm_cluster --no-filter writes it out).
    const std::string union_path = out_dir + "/union.txt";
    ChildRun run =
        RunChild(cluster_argv({"--no-filter", "--output", union_path}),
                 out_dir + "/cluster.log");
    std::vector<VertexSet> candidates = ReadSets(union_path);
    const size_t filter_in = candidates.size();
    const uint64_t b = NowUs();
    std::vector<VertexSet> maximal = FilterMaximal(std::move(candidates));
    const uint64_t e = NowUs();
    spans.Add("FilterMaximal", b, e, "{\"input\":\"qcm_cluster union\"}");
    const size_t maximal_count = maximal.size();
    s.Check("cluster union filter", run.ok,
            BaseDigest(std::move(maximal), to_base), reference);
    s.union_filter = "{\"filter_s\":" + Num((e - b) * 1e-6) +
                     ",\"filter_in\":" + std::to_string(filter_in) +
                     ",\"maximal\":" + std::to_string(maximal_count) + "}";
    ::unlink(union_path.c_str());
  }
  // At least one round, so every metric has a sample.
  do {
    if (relabel_per_solve) {
      Status next = write_input();
      if (next.ok()) next = load();
      if (!next.ok()) return Fail(next.ToString());
    }
    solve(false);
    if (traced) {
      replay();
      solve(true);
    } else {
      for (long long i = 0; i < serial_per_round; ++i) serial();
    }
  } while (Seconds(measure_start) < budget_s);

  // ---- Trace file: benchmark spans + the engine's own timeline. ----
  if (traced) {
    std::vector<std::string> fragments;
    if (!cluster) fragments.push_back(out_dir + "/engine.trace.jsonl");
    Status ts = trace::MergeFragments(fragments, spans.WithMetadata(),
                                      out_dir + "/bench.trace.json");
    if (!ts.ok()) return Fail(ts.ToString());
    if (!cluster) ::unlink((out_dir + "/engine.trace.jsonl").c_str());
  }

  struct rusage self {};
  ::getrusage(RUSAGE_SELF, &self);
  auto list = [](const std::vector<std::string>& items) {
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      out += (i ? "," : "") + items[i];
    }
    return out + "]";
  };
  auto nums = [&list](const std::vector<double>& v) {
    std::vector<std::string> items;
    for (double d : v) items.push_back(Num(d));
    return list(items);
  };
  std::vector<std::string> errors;
  for (const std::string& e : s.errors) errors.push_back(Quote(e));
  std::printf(
      "{\"graph\":{\"vertices\":%u,\"edges\":%" PRIu64 "},"
      "\"reference_digest\":\"%s\","
      "\"build_type\":%s,\"cxx_flags\":%s,\"compiler\":%s,"
      "\"cache_bytes\":{\"l1d\":%ld,\"l2\":%ld,\"l3\":%ld},"
      "\"spawn_roots\":%" PRIu64 ",\"pack_s\":%s,\"load_s\":%s,"
      "\"solves\":%s,\"serial\":%s,"
      "\"replays\":%s,\"union_filter\":%s,"
      "\"self_maxrss_kb\":%ld,\"child_maxrss_kb\":%ld,"
      "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"errors\":%s}\n",
      graph.NumVertices(), graph.NumEdges(), Hex(computed_reference).c_str(),
      Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(PERFBENCH_CXX_FLAGS).c_str(), Quote(PERFBENCH_COMPILER).c_str(),
      ::sysconf(_SC_LEVEL1_DCACHE_SIZE), ::sysconf(_SC_LEVEL2_CACHE_SIZE),
      ::sysconf(_SC_LEVEL3_CACHE_SIZE),
      spawn_roots, nums(s.pack_s).c_str(), nums(s.load_s).c_str(),
      list(s.solves).c_str(), list(s.serial).c_str(),
      list(s.replays).c_str(), s.union_filter.c_str(),
      self.ru_maxrss, s.child_maxrss_kb, s.attempted, s.failed,
      list(errors).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver gen|run --flag value ...\n");
    return 2;
  }
  Flags f;
  if (!f.Parse(argc, argv, 2)) return 2;
  const std::string cmd = argv[1];
  if (cmd == "gen") return Gen(f);
  if (cmd == "run") return Run(argv[0], f);
  std::fprintf(stderr, "perfbench_driver: unknown command %s\n", cmd.c_str());
  return 2;
}
