#include "shg/common/strings.hpp"

#include <iomanip>

namespace shg {

std::string fmt_double(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string fmt_int_set(const std::set<int>& values) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (int v : values) {
    if (!first) os << ", ";
    os << v;
    first = false;
  }
  os << "}";
  return os.str();
}

std::string csv_field(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted += '"';
  for (char c : value) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace shg
