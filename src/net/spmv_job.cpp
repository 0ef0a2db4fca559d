#include "net/spmv_job.hpp"

#include "sched/engine.hpp"
#include "solver/array_creator.hpp"
#include "spmv/generator.hpp"
#include "storage/storage_cluster.hpp"

namespace dooc::net {

double spmv_x0_value(std::uint64_t i) {
  return 1.0 + 0.001 * static_cast<double>(i % 1024);
}

SpmvJob::SpmvJob(SpmvJobConfig config) : config_(config) {
  DOOC_REQUIRE(config_.grid_k >= 1 && config_.num_nodes >= 1, "bad spmv job shape");
  global_ = spmv::generate_uniform_gap(config_.n, config_.n, config_.gap_d, config_.seed);
  // Keep iterates bounded across iterations (same trick the integration
  // tests use) so parity comparisons are not swamped by overflow.
  for (double& v : global_.values) v *= 0.05;

  const int k = config_.grid_k;
  matrix_.grid = spmv::BlockGrid(config_.n, k);
  matrix_.prefix = "A";
  matrix_.owner.resize(static_cast<std::size_t>(k) * k);
  matrix_.nnz.resize(static_cast<std::size_t>(k) * k);
  matrix_.bytes.resize(static_cast<std::size_t>(k) * k);
  block_bytes_.resize(static_cast<std::size_t>(k) * k);
  for (int u = 0; u < k; ++u) {
    for (int v = 0; v < k; ++v) {
      const auto idx = static_cast<std::size_t>(u) * k + v;
      const spmv::CsrMatrix block =
          spmv::extract_block(global_, matrix_.grid.part_begin(u), matrix_.grid.part_size(u),
                              matrix_.grid.part_begin(v), matrix_.grid.part_size(v));
      spmv::serialize_csr(block, block_bytes_[idx]);
      matrix_.owner[idx] = owner_of(u, v);
      matrix_.nnz[idx] = block.nnz();
      matrix_.bytes[idx] = block_bytes_[idx].size();
    }
  }
}

void SpmvJob::deploy(Coordinator& coord) const {
  const int k = config_.grid_k;
  for (int u = 0; u < k; ++u) {
    for (int v = 0; v < k; ++v) {
      const auto idx = static_cast<std::size_t>(u) * k + v;
      const std::string name = matrix_.name_of(u, v);
      DataBuffer bytes = DataBuffer::copy_of(block_bytes_[idx].data(), block_bytes_[idx].size());
      DOOC_REQUIRE(coord.put_block(matrix_.owner[idx], name, std::move(bytes)),
                   "deploy: node " + std::to_string(matrix_.owner[idx]) + " is not connected");
    }
  }
  for (int u = 0; u < k; ++u) {
    const std::uint64_t size = matrix_.grid.part_size(u);
    DataBuffer part(size * sizeof(double));
    auto span = part.as<double>();
    for (std::uint64_t i = 0; i < size; ++i) {
      span[i] = spmv_x0_value(matrix_.grid.part_begin(u) + i);
    }
    const std::string name = spmv::BlockGrid::vector_name("x", 0, u);
    DOOC_REQUIRE(coord.put_block(owner_of(u, u), name, std::move(part)),
                 "deploy: x0 home node is not connected");
  }
}

std::unique_ptr<solver::IteratedSpmv> SpmvJob::build_graph() const {
  // The creator only matters during graph construction (virtual catalog);
  // preferred nodes come from the DeployedMatrix owners.
  solver::VirtualArrayCreator creator;
  solver::IteratedSpmvConfig scfg;
  scfg.iterations = config_.iterations;
  scfg.mode = config_.mode;
  scfg.inter_iteration_sync = config_.inter_iteration_sync;
  return std::make_unique<solver::IteratedSpmv>(creator, matrix_, scfg);
}

std::vector<double> SpmvJob::gather(Coordinator& coord) const {
  std::vector<double> out;
  out.reserve(config_.n);
  for (int u = 0; u < config_.grid_k; ++u) {
    const std::string name =
        spmv::BlockGrid::vector_name("x", config_.iterations, u);
    const DataBuffer part = coord.fetch_block(name);
    const auto span = part.as<const double>();
    out.insert(out.end(), span.begin(), span.end());
  }
  return out;
}

std::vector<double> SpmvJob::reference(const std::string& scratch_dir) const {
  storage::StorageConfig scfg;
  scfg.scratch_root = scratch_dir;
  storage::StorageCluster cluster(config_.num_nodes, scfg);
  const spmv::BlockOwner owner = [this](int u, int v) { return owner_of(u, v); };
  const spmv::DeployedMatrix deployed =
      spmv::deploy_matrix(cluster, global_, config_.grid_k, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0, spmv_x0_value);

  solver::IteratedSpmvConfig cfg;
  cfg.iterations = config_.iterations;
  cfg.mode = config_.mode;
  cfg.inter_iteration_sync = config_.inter_iteration_sync;
  solver::IteratedSpmv driver(cluster, deployed, cfg);
  sched::Engine engine(cluster, {});
  driver.run(engine);
  return driver.gather_result();
}

}  // namespace dooc::net
