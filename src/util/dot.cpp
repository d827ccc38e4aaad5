#include "util/dot.h"

#include <sstream>

namespace acfc::util {

std::string dot_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (ch == '\n') {
      out += "\\n";
      continue;
    }
    out += ch;
  }
  return out;
}

DotGraph::DotGraph(std::string name) : name_(std::move(name)) {}

void DotGraph::add_node(const std::string& id, const std::string& label,
                        const std::string& extra_attrs) {
  std::ostringstream os;
  os << "  \"" << dot_escape(id) << "\" [label=\"" << dot_escape(label)
     << '"';
  if (!extra_attrs.empty()) os << ", " << extra_attrs;
  os << "];";
  lines_.push_back(os.str());
}

void DotGraph::add_edge(const std::string& from, const std::string& to,
                        const std::string& extra_attrs) {
  std::ostringstream os;
  os << "  \"" << dot_escape(from) << "\" -> \"" << dot_escape(to) << '"';
  if (!extra_attrs.empty()) os << " [" << extra_attrs << ']';
  os << ';';
  lines_.push_back(os.str());
}

std::string DotGraph::str() const {
  std::ostringstream os;
  os << "digraph \"" << dot_escape(name_) << "\" {\n";
  os << "  node [fontname=\"Helvetica\"];\n";
  for (const auto& line : lines_) os << line << '\n';
  os << "}\n";
  return os.str();
}

}  // namespace acfc::util
