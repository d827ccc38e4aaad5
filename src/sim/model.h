// The immutable per-program half of a simulation: the program plus its
// static checkpoint index (ckpt_id → S_i), built once.
//
// Mapping a checkpoint statement to its static index means building the
// program's CFG and running index_checkpoints() — work that depends only
// on the program, never on options, seeds or schedules. A Model does it
// once; every Engine built from the Model shares it read-only, so a
// search or batch that runs thousands of short engines pays for the CFG
// once instead of once per run. A Model is never mutated after
// construction and may be shared across threads.
#pragma once

#include <cstddef>
#include <vector>

#include "mp/stmt.h"

namespace acfc::sim {

class Model {
 public:
  /// `program` must outlive the model and stay unmutated.
  explicit Model(const mp::Program& program);

  const mp::Program& program() const { return *program_; }

  /// S_i of the checkpoint statement with id `ckpt_id`; -1 when unknown
  /// (forced checkpoints carry id -1, and an unbalanced placement leaves
  /// every index unknown).
  int static_index(int ckpt_id) const {
    if (ckpt_id < 0 ||
        static_cast<std::size_t>(ckpt_id) >= static_index_.size())
      return -1;
    return static_index_[static_cast<std::size_t>(ckpt_id)];
  }

 private:
  const mp::Program* program_;
  /// Indexed by ckpt_id directly: the parser assigns dense checkpoint ids.
  std::vector<int> static_index_;
};

}  // namespace acfc::sim
