#include "core/compose.hpp"

namespace ppa::compose {

void validate_hosted_widths(const std::vector<NodeMeta>& meta, int available,
                            const std::string& what) {
  for (std::size_t j = 0; j < meta.size(); ++j) {
    if (meta[j].hosted_np > available) {
      throw GraphShapeError(
          node_label(meta[j], j, meta.size()), meta[j].hosted_np, available,
          what + ": hosted job wider than the engine serving this graph");
    }
  }
}

namespace detail {

void HostBinding::run(int np,
                      const std::function<void(mpl::Process&)>& body) const {
  if (scheduler != nullptr) {
    scheduler->run_job(np, body, priority, options);
  } else {
    mpl::spmd_run(np, body);
  }
}

}  // namespace detail

}  // namespace ppa::compose
