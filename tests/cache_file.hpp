// Hand-built `shg.cache.v1` files for the loader tests. The header is
// assembled here byte by byte, independently of the library's writer, so a
// test can produce a checksum-valid file of any payload kind — including
// the retired kind 0 (candidate metrics), which loaders must discard.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

namespace shg::testing_cache {

/// Header + payload: magic, format version 1, `kind`, `count` and the
/// FNV-1a 64 checksum of `payload`, all little-endian.
inline std::string cache_file_bytes(std::uint32_t kind,
                                    const std::string& payload,
                                    std::uint64_t count) {
  std::string out = "SHGCACHE";
  const auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const char c : payload) {
    checksum = (checksum ^ static_cast<unsigned char>(c)) *
               0x00000100000001b3ULL;
  }
  put(1, 4);
  put(kind, 4);
  put(count, 8);
  put(checksum, 8);
  return out + payload;
}

/// One kind-0 entry's worth of bytes: (hi, lo) plus four doubles, 48 B.
inline std::string candidate_entry_bytes() { return std::string(48, '\x2a'); }

inline void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

inline std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace shg::testing_cache
