// Pretty-printing of MiniMP programs back into the DSL grammar accepted by
// mp::parse (round-trip safe: parse(print(p)) is structurally equal to p).
#pragma once

#include <string>

#include "mp/stmt.h"

namespace acfc::mp {

/// Two spaces of indent per nesting level.
std::string print(const Program& program);
std::string print(const Stmt& stmt);

}  // namespace acfc::mp
