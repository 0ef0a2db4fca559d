// Shared test helpers.
#pragma once

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "storage/storage_cluster.hpp"

namespace dooc::testutil {

/// Unique scratch directory under the build tree, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("dooc_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Bytes of `arrays` resident in memory, summed over every node's copy.
inline std::uint64_t resident_bytes_of(storage::StorageCluster& cluster,
                                       const std::vector<std::string>& arrays) {
  std::uint64_t bytes = 0;
  for (const auto& name : arrays) {
    const auto meta = cluster.catalog().shard_for(name).find(name);
    if (!meta) continue;
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      const std::vector<bool> resident = cluster.node(n).residency(name);
      for (std::uint64_t b = 0; b < resident.size(); ++b) {
        if (resident[b]) bytes += meta->block_bytes(b);
      }
    }
  }
  return bytes;
}

}  // namespace dooc::testutil
