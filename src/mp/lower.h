// Lowering of collective communication statements to point-to-point
// send/recv, as the paper assumes: "using any message-passing compiler,
// every collective communication statement can be reduced to send/receive
// statements".
//
// The lowered forms are the textbook linear algorithms:
//
//   bcast root r:  root sends to every other rank; others recv from r.
//   barrier:       gather-to-0 then release-from-0.
//
// Lowered statements use a reserved tag space (kCollectiveTagBase +
// original tag) so they never collide with application messages. The
// simulator can execute both the native collectives and the lowered form;
// tests assert that the two produce identical happened-before structure.
#pragma once

#include <limits>

#include "mp/stmt.h"

namespace acfc::mp {

/// Tag offset applied to lowered control messages.
inline constexpr int kCollectiveTagBase = 1'000'000;
/// Largest collective tag whose lowered tag still fits an int; the parser
/// rejects a larger one.
inline constexpr int kMaxCollectiveTag =
    std::numeric_limits<int>::max() - kCollectiveTagBase;

/// Returns a copy of `program` with every barrier/bcast replaced by
/// point-to-point statements. The result is renumbered.
Program lower_collectives(const Program& program);

/// True if the program contains any collective statement.
bool has_collectives(const Program& program);

}  // namespace acfc::mp
