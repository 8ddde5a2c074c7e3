// The docs cite experiments by registry name (`megh_bench --only <name>`
// and the docs/BENCHMARKS.md registry table). A renamed spec leaves those
// commands failing with "unknown experiment", so every cited name is
// checked against the registry the megh_bench driver runs, and the table
// must list every registered experiment.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment_registry.hpp"

namespace megh {
namespace {

const std::vector<std::string> kDocs = {
    "README.md",          "DESIGN.md",          "EXPERIMENTS.md",
    "docs/BENCHMARKS.md", "docs/ALGORITHM.md",  "docs/COST_MODEL.md",
    "docs/RESILIENCE.md", "docs/PERFORMANCE.md",
};

std::string read_doc(const std::string& rel) {
  std::ifstream in(std::string(MEGH_SOURCE_DIR) + "/" + rel);
  EXPECT_TRUE(in.good()) << "cannot open " << rel;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Names after `megh_bench --only`, comma lists split; placeholders such
/// as `<name>` do not match.
std::vector<std::string> only_names(const std::string& text) {
  static const std::regex only(R"(megh_bench --only ([A-Za-z0-9_,]+))");
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), only);
       it != std::sregex_iterator(); ++it) {
    std::stringstream list((*it)[1].str());
    std::string name;
    while (std::getline(list, name, ',')) {
      if (!name.empty()) names.push_back(name);
    }
  }
  return names;
}

/// First-column names of the docs/BENCHMARKS.md registry table.
std::set<std::string> table_names(const std::string& text) {
  const std::size_t start = text.find("## The registry");
  const std::size_t end = text.find("\n## ", start + 1);
  const std::string section = text.substr(start, end - start);
  static const std::regex row(R"(\n\| `([^`]+)` \|)");
  std::set<std::string> names;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), row);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

TEST(ExperimentDocsTest, EveryCitedNameIsRegistered) {
  const ExperimentRegistry& registry = ExperimentRegistry::instance();
  std::size_t cited = 0;
  for (const std::string& doc : kDocs) {
    for (const std::string& name : only_names(read_doc(doc))) {
      ++cited;
      EXPECT_NE(registry.find(name), nullptr)
          << doc << " cites `megh_bench --only " << name
          << "`, which is not a registered experiment";
    }
  }
  EXPECT_GT(cited, 10u);
}

TEST(ExperimentDocsTest, BenchmarksTableMatchesRegistry) {
  const std::set<std::string> table =
      table_names(read_doc("docs/BENCHMARKS.md"));
  for (const std::string& name : table) {
    EXPECT_NE(ExperimentRegistry::instance().find(name), nullptr)
        << "docs/BENCHMARKS.md lists `" << name
        << "`, which is not a registered experiment";
  }
  for (const ExperimentSpec* spec : ExperimentRegistry::instance().all()) {
    if (spec->name.rfind("registry_test_", 0) == 0) {
      continue;  // registered by test_engine.cpp, not by bench/
    }
    EXPECT_TRUE(table.count(spec->name) == 1)
        << "docs/BENCHMARKS.md does not list `" << spec->name << "`";
  }
}

}  // namespace
}  // namespace megh
