#include "net/job_spec.h"

#include "util/serde.h"

namespace qcm {

std::string EncodeJobSpec(const ClusterJobSpec& spec) {
  Encoder enc;
  EncodeEngineConfig(spec.config, &enc);
  return enc.Release();
}

Status DecodeJobSpec(const std::string& blob, ClusterJobSpec* spec) {
  Decoder dec(blob);
  QCM_RETURN_IF_ERROR(DecodeEngineConfig(&dec, &spec->config));
  if (!dec.Done()) return Status::Corruption("trailing bytes in job spec");
  if (spec->config.graph_snapshot.empty()) {
    return Status::InvalidArgument(
        "job spec names no graph_snapshot (qcm_cluster packs the graph or "
        "passes --snapshot; workers never rebuild it)");
  }
  return Status::OK();
}

}  // namespace qcm
