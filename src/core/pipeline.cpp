#include "core/pipeline.hpp"

namespace ppa::pipeline {

std::string node_label(const NodeMeta& meta, std::size_t index,
                       std::size_t n_nodes) {
  if (meta.kind == NodeMeta::Kind::kSource || index == 0) return "source";
  if (meta.kind == NodeMeta::Kind::kSink || index + 1 == n_nodes) return "sink";
  const std::string idx = std::to_string(index);
  const std::string np = std::to_string(meta.hosted_np);
  if (meta.kind == NodeMeta::Kind::kFarm) {
    const std::string order = meta.ordered ? "ordered" : "unordered";
    if (meta.hosted_np > 0) {
      return "hosted-farm#" + idx + " (" + order + ", np=" + np + ")";
    }
    return "farm#" + idx + " (" + order + ")";
  }
  if (meta.hosted_np > 0) return "hosted#" + idx + " (np=" + np + ")";
  return "stage#" + idx;
}

void validate_farm_order(const std::vector<NodeMeta>& meta, const std::string& what) {
  bool in_order = true;  // is the stream still in source-seq order here?
  for (std::size_t j = 0; j < meta.size(); ++j) {
    if (meta[j].kind != NodeMeta::Kind::kFarm) continue;
    if (!meta[j].ordered) {
      in_order = false;
    } else if (!in_order) {
      throw GraphShapeError(
          node_label(meta[j], j, meta.size()), 0, 0,
          what + ": an ordered farm cannot follow an unordered farm (its input "
                 "stream is no longer in sequence order, and the order it would "
                 "restore is the nondeterministic completion order)");
    }
  }
}

}  // namespace ppa::pipeline
