#include "snapshot/audit.h"

namespace ronpath {

std::string format_audit(const std::vector<std::string>& violations) {
  if (violations.empty()) return "audit clean\n";
  std::string out = "audit FAILED with " + std::to_string(violations.size()) + " violation(s):\n";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out += "  " + std::to_string(i + 1) + ". " + violations[i] + "\n";
  }
  return out;
}

}  // namespace ronpath
