// Minimal Graphviz DOT emission, used by the CFG and extended-CFG dumps.
#pragma once

#include <string>
#include <vector>

namespace acfc::util {

/// Builds a DOT digraph incrementally; nodes and edges carry free-form
/// attribute strings (already in `key=value` DOT syntax, comma-joined).
class DotGraph {
 public:
  explicit DotGraph(std::string name);

  void add_node(const std::string& id, const std::string& label,
                const std::string& extra_attrs = {});
  void add_edge(const std::string& from, const std::string& to,
                const std::string& extra_attrs = {});

  std::string str() const;

 private:
  std::string name_;
  std::vector<std::string> lines_;
};

/// Escapes a label for inclusion inside a double-quoted DOT string.
std::string dot_escape(const std::string& s);

}  // namespace acfc::util
