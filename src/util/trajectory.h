// Trajectory-file parsing and the --compare gate shared by the perf
// benches (bench_hotpath, bench_scale, bench_workload).
//
// A trajectory file (BENCH_hotpath.json, BENCH_scale.json) is a JSON
// array of flat objects, one per committed run, appended over time. The
// format is our own, so a hand-rolled scanner is sufficient and avoids a
// JSON-library dependency — but the scan must be entry-aware: --compare
// baselines come from the LAST entry only. Older entries may carry
// fields that later runs dropped (and vice versa: pre-PR6 rows have no
// sharded columns), so a whole-file "last occurrence of the key" scan
// silently picks a stale baseline whenever the newest entry lacks a
// field an older one has.

#ifndef RONPATH_UTIL_TRAJECTORY_H_
#define RONPATH_UTIL_TRAJECTORY_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace ronpath::traj {

// Reads a whole file; nullopt when it cannot be opened.
inline std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Returns the last complete top-level `{...}` object in `text`, brace
// matched and string-aware (braces inside JSON strings, including
// escaped quotes, do not count). Empty string when the text holds no
// complete object.
inline std::string last_entry(const std::string& text) {
  std::size_t best_start = std::string::npos;
  std::size_t best_end = std::string::npos;  // one past the closing brace
  std::size_t start = std::string::npos;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      if (depth > 0 && --depth == 0) {
        best_start = start;
        best_end = i + 1;
      }
    }
  }
  if (best_start == std::string::npos) return {};
  return text.substr(best_start, best_end - best_start);
}

// Scans `entry` for `"key": <number>` and returns the first value, or
// `fallback` when the key is absent. Keys in our trajectory entries are
// unique per object, so first == only.
inline double number_field(const std::string& entry, const std::string& key,
                           double fallback = -1.0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = entry.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtod(entry.c_str() + at + needle.size(), nullptr);
}

// True when the entry carries the key at all (regardless of value).
inline bool has_field(const std::string& entry, const std::string& key) {
  return entry.find("\"" + key + "\":") != std::string::npos;
}

// Reads `path` and returns its last entry. Prints a --compare
// diagnostic and returns nullopt when the file cannot be read or holds
// no complete entry.
inline std::optional<std::string> load_last_entry(const char* path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    std::fprintf(stderr, "--compare: cannot read %s\n", path);
    return std::nullopt;
  }
  std::string entry = last_entry(*text);
  if (entry.empty()) {
    std::fprintf(stderr, "--compare: no trajectory entry in %s\n", path);
    return std::nullopt;
  }
  return entry;
}

// Compares a measured rate (higher is better) with the committed one.
// Prints the comparison, or a REGRESSION diagnostic to stderr when the
// committed rate exceeds the measured one by more than `max_regress`x;
// returns whether the rate is within that bound.
inline bool rate_within(const std::string& key, double measured, double committed,
                        double max_regress) {
  const double ratio = committed / measured;
  std::printf("compare %-24s measured %12.1f committed %12.1f (%.2fx %s)\n", key.c_str(),
              measured, committed, ratio > 1.0 ? ratio : 1.0 / ratio,
              ratio > 1.0 ? "slower" : "faster");
  if (ratio <= max_regress) return true;
  std::fprintf(stderr, "REGRESSION: %s is %.2fx below the committed baseline (limit %.2fx)\n",
               key.c_str(), ratio, max_regress);
  return false;
}

// Compares a measured checksum with the entry's `"key": "%016x"` field
// (the emitters' spelling). Prints the match, or a CHECKSUM DRIFT
// diagnostic to stderr; returns whether they match.
inline bool checksum_matches(const std::string& entry, const std::string& key,
                             std::uint64_t measured) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(measured));
  if (entry.find("\"" + key + "\": \"" + hex + "\"") != std::string::npos) {
    std::printf("compare %-24s %s (matches committed baseline)\n", key.c_str(), hex);
    return true;
  }
  std::fprintf(stderr,
               "CHECKSUM DRIFT: %s is %s, not the committed baseline's — simulation "
               "behaviour changed\n",
               key.c_str(), hex);
  return false;
}

}  // namespace ronpath::traj

#endif  // RONPATH_UTIL_TRAJECTORY_H_
