#include "common/units.hpp"

#include <cstdio>

namespace drn::units::detail {

std::string with_symbol(double value, const char* symbol) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g %s", value, symbol);
  return buf;
}

}  // namespace drn::units::detail
