// Golden digest files under tests/paper/golden/: one line per cell, keyed
// by its first two words. A test computes each cell's line and compares it
// with the pinned one; under REDBUD_REGEN_GOLDEN it rewrites that line
// instead (lines stay sorted). Regenerate after an intentional change of
// behaviour, in one process per suite (each case rewrites its own lines).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace redbud::bench {

// Compare a cell's digest line with its pinned line in golden file
// `file`, or, under REDBUD_REGEN_GOLDEN, replace that line (lines stay
// sorted). A line's key is its first two words: the workload and the
// configuration.
inline void expect_golden(const std::string& file, const std::string& line) {
  const std::string path =
      std::string(REDBUD_TEST_SRC_DIR) + "/paper/golden/" + file;
  const std::string key = line.substr(0, line.find(' ', line.find(' ') + 1));
  const auto has_key = [&key](const std::string& l) {
    return l.compare(0, key.size() + 1, key + " ") == 0;
  };
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string l; std::getline(in, l);) lines.push_back(l);
  }
  const auto it = std::find_if(lines.begin(), lines.end(), has_key);
  if (std::getenv("REDBUD_REGEN_GOLDEN") != nullptr) {
    if (it != lines.end()) lines.erase(it);
    lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    std::ofstream out(path, std::ios::trunc);
    for (const auto& l : lines) out << l << '\n';
    ASSERT_TRUE(bool(out)) << "failed to regenerate " << path;
    return;
  }
  ASSERT_NE(it, lines.end()) << "no golden line for " << key << " in "
                             << path;
  EXPECT_EQ(line, *it) << "digest drifted from " << file
                       << "; regenerate with REDBUD_REGEN_GOLDEN=1 if the "
                          "change is intentional.";
}

}  // namespace redbud::bench
