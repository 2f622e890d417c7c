#include "common/version.hpp"

namespace pml {

const std::vector<ArtifactFormat>& artifact_formats() {
  // Keep in sync with the emit/load sites: artifact.cpp (envelope,
  // legacy_kind_for_format), framework.cpp (model), tuning_table.cpp,
  // dataset_builder.cpp, fault.cpp, obs/export.cpp.
  static const std::vector<ArtifactFormat> formats = {
      {"envelope", "pml-artifact-v1", {"pml-artifact-v1"}},
      {"model", "pml-mpi-model-v2", {"pml-mpi-model-v2", "pml-mpi-model-v1"}},
      {"tuning-table", "pml-mpi-tuning-table-v2", {"pml-mpi-tuning-table-v2"}},
      {"dataset", "pml-dataset-v2", {"pml-dataset-v2"}},
      {"fault-plan", "pml-fault-plan-v1", {"pml-fault-plan-v1"}},
      {"metrics", "pml-metrics-v1", {"pml-metrics-v1"}},
  };
  return formats;
}

Json version_json() {
  Json j = Json::object();
  j["version"] = std::string(kPmlVersion);
  Json artifacts = Json::object();
  for (const ArtifactFormat& f : artifact_formats()) {
    Json row = Json::object();
    row["writes"] = std::string(f.writes);
    Json reads = Json::array();
    for (const char* r : f.reads) reads.push_back(std::string(r));
    row["reads"] = std::move(reads);
    artifacts[f.kind] = std::move(row);
  }
  j["artifacts"] = std::move(artifacts);
  return j;
}

std::string version_text() {
  std::string out = "pml ";
  out += kPmlVersion;
  out += "\nartifact schemas (writes / reads):\n";
  for (const ArtifactFormat& f : artifact_formats()) {
    out += "  ";
    out += f.kind;
    out += ": ";
    out += f.writes;
    out += " / ";
    for (std::size_t i = 0; i < f.reads.size(); ++i) {
      if (i > 0) out += ", ";
      out += f.reads[i];
    }
    out += '\n';
  }
  return out;
}

}  // namespace pml
