#include "shg/common/strings.hpp"

#include <iomanip>

namespace shg {

std::string fmt_double(double value, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << value;
  return os.str();
}

std::string fmt_int_set(const std::set<int>& values) {
  std::string out = "{";
  for (int v : values) {
    if (out.size() > 1) out += ", ";
    out += std::to_string(v);
  }
  return out + "}";
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
