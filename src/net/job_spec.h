// ClusterJobSpec: everything a worker process needs to run its share of a
// distributed mining job, shipped as the opaque config blob of the rank-
// assignment handshake (wire.h kAssign). The graph itself is NOT shipped:
// workers mmap the .qcsr snapshot named by config.graph_snapshot, which
// the launcher packed (or was handed with --snapshot).

#ifndef QCM_NET_JOB_SPEC_H_
#define QCM_NET_JOB_SPEC_H_

#include <string>

#include "gthinker/engine_config.h"
#include "util/status.h"

namespace qcm {

struct ClusterJobSpec {
  /// Full engine configuration; num_machines must equal the cluster's
  /// world size, and graph_snapshot must name the packed graph.
  EngineConfig config;
};

std::string EncodeJobSpec(const ClusterJobSpec& spec);
/// Rejects a spec whose config names no graph_snapshot: workers never
/// rebuild the graph themselves.
Status DecodeJobSpec(const std::string& blob, ClusterJobSpec* spec);

}  // namespace qcm

#endif  // QCM_NET_JOB_SPEC_H_
