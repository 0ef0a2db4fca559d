// Indirection for array creation so the iterated-SpMV graph builder can
// target either the real distributed storage layer (functional runs) or a
// virtual catalog (the discrete-event testbed simulator, where paper-scale
// arrays never physically exist).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "storage/storage_cluster.hpp"

namespace dooc::solver {

class ArrayCreator {
 public:
  virtual ~ArrayCreator() = default;
  /// Create a single-block array of `bytes` homed on `home_node`.
  virtual void create(const std::string& name, std::uint64_t bytes, int home_node) = 0;
};

/// Creates arrays in the real storage layer.
class StorageArrayCreator final : public ArrayCreator {
 public:
  explicit StorageArrayCreator(storage::StorageCluster& cluster) : cluster_(cluster) {}
  void create(const std::string& name, std::uint64_t bytes, int home_node) override {
    cluster_.node(home_node).create_array(name, bytes, bytes);
  }

 private:
  storage::StorageCluster& cluster_;
};

/// Records array metadata only — used by the simulator.
struct VirtualArray {
  std::uint64_t bytes = 0;
  int home_node = 0;
  bool durable = false;  ///< pre-exists on "disk" (matrix blocks, x0)
};

class VirtualArrayCreator final : public ArrayCreator {
 public:
  void create(const std::string& name, std::uint64_t bytes, int home_node) override {
    arrays_[name] = VirtualArray{bytes, home_node, false};
  }
  /// Register a pre-existing (durable) array, e.g. a sub-matrix file.
  void add_durable(const std::string& name, std::uint64_t bytes, int home_node) {
    arrays_[name] = VirtualArray{bytes, home_node, true};
  }
  [[nodiscard]] const std::map<std::string, VirtualArray>& arrays() const noexcept {
    return arrays_;
  }

 private:
  std::map<std::string, VirtualArray> arrays_;
};

}  // namespace dooc::solver
