// The request catalog run.py writes and pb_loadgen / pb_probe replay.
//
// Format (little endian): "PBCAT1\n", u32 n, then n times
//   u32 len + path ("/<module>"), u32 len + body, u32 len + expected body.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

struct CatalogEntry {
  std::string path;      // "/<module>"
  std::string body;      // request body
  std::string expected;  // exact response body
};

// Reads the catalog; on a missing or malformed file prints why and exits.
inline std::vector<CatalogEntry> load_catalog(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  auto fail = [&](const char* why) {
    std::fprintf(stderr, "catalog %s: %s\n", file.c_str(), why);
    std::exit(1);
  };
  auto u32 = [&] {
    uint8_t b[4];
    if (!in.read(reinterpret_cast<char*>(b), 4)) fail("truncated");
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
  };
  auto blob = [&] {
    uint32_t n = u32();
    if (n > (64u << 20)) fail("entry too large");
    std::string s(n, '\0');
    if (n && !in.read(s.data(), n)) fail("truncated");
    return s;
  };
  char magic[7];
  if (!in.read(magic, 7) || std::memcmp(magic, "PBCAT1\n", 7) != 0) {
    fail("bad magic");
  }
  std::vector<CatalogEntry> out(u32());
  for (CatalogEntry& e : out) {
    e.path = blob();
    e.body = blob();
    e.expected = blob();
    if (e.path.size() < 2 || e.path[0] != '/') fail("bad path");
  }
  return out;
}

}  // namespace perfbench
