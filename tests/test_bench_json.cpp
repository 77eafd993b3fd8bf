// Tier-1 smoke for the benchmark --json writer: the eager sweep must
// produce a parseable JSON document with the expected series keys and
// aligned column lengths — CI's nightly bench artifacts depend on this
// exact shape.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "../bench/bench_common.hpp"

namespace madmpi::bench {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  std::string out;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, f)) != 0) {
    out.append(buffer, n);
  }
  std::fclose(f);
  return out;
}

/// Minimal structural check: balanced braces/brackets outside strings and
/// no trailing comma before a closer — enough to catch writer formatting
/// bugs without a JSON library.
bool structurally_valid_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  char last_token = '\0';
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        last_token = '"';
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        last_token = c;
        break;
      case '}':
        if (stack.empty() || stack.back() != '{' || last_token == ',') {
          return false;
        }
        stack.pop_back();
        last_token = c;
        break;
      case ']':
        if (stack.empty() || stack.back() != '[' || last_token == ',') {
          return false;
        }
        stack.pop_back();
        last_token = c;
        break;
      case ',':
      case ':':
        last_token = c;
        break;
      default:
        if (!std::isspace(static_cast<unsigned char>(c))) last_token = c;
        break;
    }
  }
  return !in_string && stack.empty();
}

TEST(BenchJson, JsonPathFromArgsParsesBothForms) {
  char prog[] = "bench";
  char flag[] = "--json";
  char path[] = "/tmp/out.json";
  char* split_argv[] = {prog, flag, path};
  EXPECT_EQ(json_path_from_args(3, split_argv), "/tmp/out.json");

  char joined[] = "--json=/tmp/other.json";
  char* joined_argv[] = {prog, joined};
  EXPECT_EQ(json_path_from_args(2, joined_argv), "/tmp/other.json");

  char* bare_argv[] = {prog};
  EXPECT_EQ(json_path_from_args(1, bare_argv), "");
}

TEST(BenchJson, EagerSweepWritesExpectedSeries) {
  // Short reps: this is a shape check, not a measurement.
  const auto columns = eager_sweep(sim::Protocol::kTcp, /*reps=*/4);
  const std::string path =
      ::testing::TempDir() + "/bench_json_smoke.json";
  ASSERT_TRUE(write_json_series(path, "eager", columns));

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(structurally_valid_json(text)) << text;
  EXPECT_NE(text.find("\"bench\": \"eager\""), std::string::npos);
  for (const char* key :
       {"bytes", "one_way_us", "bandwidth_mb_s", "bytes_copied_per_msg",
        "staging_allocs_per_msg", "pool_allocs_per_msg",
        "modeled_copy_bytes_per_msg", "match_probes_per_attempt",
        "match_bucket_locks_per_attempt", "match_rank_locks_per_attempt",
        "match_posted_depth_hw", "match_unexpected_depth_hw"}) {
    std::string quoted = "\"";
    quoted += key;
    quoted += '"';
    EXPECT_NE(text.find(quoted), std::string::npos)
        << "missing series key " << key;
  }

  // Columns are aligned on one x axis: 1 B .. 1 KB powers of two.
  ASSERT_FALSE(columns.empty());
  const std::size_t points = columns.front().values.size();
  EXPECT_EQ(points, 11u);
  for (const auto& column : columns) {
    EXPECT_EQ(column.values.size(), points) << column.key;
  }

  // Specific-source ping-pong traffic stays on the bucket fast path: the
  // rank-wide lock is reserved for wildcards, probes and cancellation.
  for (const auto& column : columns) {
    if (column.key != "match_rank_locks_per_attempt") continue;
    for (std::size_t i = 0; i < column.values.size(); ++i) {
      EXPECT_EQ(column.values[i], 0.0)
          << column.key << " at size index " << i
          << ": eager ping-pong must not take the rank-wide lock";
    }
  }

  // And the zero-copy datapath invariant holds in the sweep itself.
  for (const auto& column : columns) {
    if (column.key != "staging_allocs_per_msg" &&
        column.key != "pool_allocs_per_msg") {
      continue;
    }
    for (std::size_t i = 0; i < column.values.size(); ++i) {
      EXPECT_EQ(column.values[i], 0.0)
          << column.key << " at size index " << i
          << ": steady-state eager traffic must not allocate";
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace madmpi::bench
