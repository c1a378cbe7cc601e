// Small string formatting helpers shared across modules.
#pragma once

#include <set>
#include <sstream>
#include <string>

namespace shg {

/// Formats a floating point value with the given number of decimals.
std::string fmt_double(double value, int decimals);

/// Formats a set of integers as "{a, b, c}" (used for SR / SC sets).
std::string fmt_int_set(const std::set<int>& values);

/// RFC-4180 CSV field quoting: returns the value unchanged unless it
/// contains a comma, double quote, or newline, in which case it is wrapped
/// in quotes with embedded quotes doubled (so labels like
/// "hotspot:0,7:0.2" survive a long-format CSV).
std::string csv_field(const std::string& value);

}  // namespace shg
