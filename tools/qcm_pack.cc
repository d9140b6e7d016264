// qcm_pack: converts a SNAP-format edge list or a planted-community spec
// into a page-aligned, checksummed .qcsr snapshot (graph/csr_snapshot.h)
// that qcm_mine / qcm_worker mmap instead of text-parsing. Pack once,
// mine many times: qcm_cluster runs this conversion in-process and ships
// only the snapshot path to its workers.
//
// Usage:
//   qcm_pack --input graph.txt --output graph.qcsr [--page-size N]
//   qcm_pack --gen-planted n=5000,communities=10,size=16..20,density=0.95
//            --seed 7 --output planted.qcsr --verify
//
// `qcm_pack --help` lists every flag with its default.

#include <cstdio>
#include <string>

#include "graph/csr_snapshot.h"
#include "graph/graph_source.h"
#include "util/flags.h"
#include "util/mem.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace qcm;
  GraphSource source;
  std::string output;
  uint32_t page_size = kCsrDefaultPageSize;
  bool verify = false;
  bool quiet = false;
  FlagSet flags(
      "qcm_pack (--input PATH | --gen-planted SPEC) --output FILE.qcsr "
      "[flags]");
  RegisterGraphSourceFlags(&flags, &source);
  flags.String("--output", &output, "PATH", "snapshot file to write");
  flags.Int("--page-size", &page_size,
            "section alignment / paging granularity in bytes; power of two "
            ">= 4096");
  flags.Bool("--verify", &verify,
             "re-open the written file and stream-verify every section "
             "checksum (including adjacency)");
  flags.Bool("--quiet", &quiet, "suppress the layout report");
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  if (!source.HasExactlyOne()) {
    return flags.UsageError(
        "exactly one of --input / --gen-planted is required");
  }
  if (output.empty()) return flags.UsageError("--output is required");

  auto packed = PackGraphSource(source, output, page_size);
  if (!packed.ok()) {
    std::fprintf(stderr, "pack failed: %s\n",
                 packed.status().ToString().c_str());
    return ExitCodeFor(packed.status());
  }

  CsrSnapshot::OpenOptions open_opts;
  open_opts.verify_sections = verify;
  open_opts.verify_adjacency = verify;
  WallTimer verify_timer;
  auto snap = CsrSnapshot::Open(output, open_opts);
  if (!snap.ok()) {
    std::fprintf(stderr, "re-open of packed snapshot failed: %s\n",
                 snap.status().ToString().c_str());
    return 1;
  }
  const double verify_seconds = verify_timer.Seconds();

  if (!quiet) {
    const CsrHeader& h = (*snap)->header();
    std::fprintf(stderr,
                 "packed %s: %u vertices, %llu edges, %s (page size %s)\n",
                 output.c_str(), h.num_vertices,
                 static_cast<unsigned long long>(h.num_edges),
                 HumanBytes(h.file_bytes).c_str(),
                 HumanBytes(h.page_size).c_str());
    for (int i = 0; i < kCsrNumSections; ++i) {
      const CsrSectionDesc& s = h.sections[i];
      std::fprintf(stderr,
                   "  section %-12s offset %-10llu %-12s checksum "
                   "%016llx\n",
                   CsrSectionName(i),
                   static_cast<unsigned long long>(s.file_offset),
                   HumanBytes(s.bytes).c_str(),
                   static_cast<unsigned long long>(s.checksum));
    }
    std::fprintf(stderr,
                 "pack: load %.3f s, pack %.3f s, %s %.3f s\n",
                 packed->load_seconds, packed->pack_seconds,
                 verify ? "verify" : "re-open", verify_seconds);
  }
  return 0;
}
