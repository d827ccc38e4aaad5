#include "sim/model.h"

#include "cfg/cfg.h"
#include "util/error.h"

namespace acfc::sim {

Model::Model(const mp::Program& program) : program_(&program) {
  try {
    const cfg::Cfg graph = cfg::build_cfg(program);
    const auto indexing = graph.index_checkpoints();
    for (const auto& [node, index] : indexing.index_of) {
      const auto* stmt = static_cast<const mp::CheckpointStmt*>(
          graph.node(node).stmt);
      if (stmt->ckpt_id < 0) continue;
      const auto id = static_cast<std::size_t>(stmt->ckpt_id);
      if (id >= static_index_.size()) static_index_.resize(id + 1, -1);
      static_index_[id] = index;
    }
  } catch (const util::ProgramError&) {
    // Unbalanced placement: static indices stay unknown (-1); straight-cut
    // analyses are not meaningful, but simulation still runs.
  }
}

}  // namespace acfc::sim
