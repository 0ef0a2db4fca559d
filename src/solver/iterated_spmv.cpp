#include "solver/iterated_spmv.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "spmv/kernels.hpp"

namespace dooc::solver {

using sched::Task;
using sched::TaskContext;
using spmv::BlockGrid;
using storage::Interval;

namespace {

std::string aggregate_name(const std::string& base, int iteration, int u, int node) {
  return base + "a" + std::to_string(iteration) + "_" + std::to_string(u) + "_" +
         std::to_string(node);
}

std::string sync_name(const std::string& base, int iteration, bool after_spmv) {
  return base + (after_spmv ? "syncm" : "sync") + std::to_string(iteration);
}

/// Display form used in traces: x_{u,v}^i etc., matching the paper's figures.
std::string mult_display(int i, int u, int v) {
  return "x_{" + std::to_string(u) + "," + std::to_string(v) + "}^" + std::to_string(i);
}
std::string reduce_display(int i, int u) {
  return "x_" + std::to_string(u) + "^" + std::to_string(i);
}

/// The node that sums row u and homes x_u: the one node that owns every
/// block of column u, since it alone reads x_u in the next multiply; when
/// column u spans several nodes, the paper's "first processor of the row",
/// the node hosting A_{u,0}.
int reduce_node(const spmv::DeployedMatrix& matrix, int u) {
  const int column_owner = matrix.owner_of(0, u);
  for (int w = 1; w < matrix.grid.k(); ++w) {
    if (matrix.owner_of(w, u) != column_owner) return matrix.owner_of(u, 0);
  }
  return column_owner;
}

}  // namespace

IteratedSpmv::IteratedSpmv(storage::StorageCluster& cluster, const spmv::DeployedMatrix& matrix,
                           IteratedSpmvConfig config)
    : cluster_(&cluster),
      owned_creator_(std::make_unique<StorageArrayCreator>(cluster)),
      creator_(owned_creator_.get()),
      matrix_(matrix),
      config_(std::move(config)) {
  DOOC_REQUIRE(config_.iterations >= 1, "need at least one iteration");
  build();
}

IteratedSpmv::IteratedSpmv(ArrayCreator& creator, const spmv::DeployedMatrix& matrix,
                           IteratedSpmvConfig config)
    : creator_(&creator), matrix_(matrix), config_(std::move(config)) {
  DOOC_REQUIRE(config_.iterations >= 1, "need at least one iteration");
  build();
}

void IteratedSpmv::create_vector_array(const std::string& name, int home_node,
                                       std::uint64_t bytes) {
  creator_->create(name, bytes, home_node);
  created_arrays_.push_back(name);
}

void IteratedSpmv::build() {
  const BlockGrid& grid = matrix_.grid;
  const int k = grid.k();
  const std::string& base = config_.vector_base;
  const std::string& out_base = result_base();

  flops_per_iteration_ = 2.0 * static_cast<double>(matrix_.total_nnz());
  for (int u = 0; u < k; ++u) {
    flops_per_iteration_ += static_cast<double>(k) * static_cast<double>(grid.part_size(u));
  }

  DOOC_REQUIRE(config_.first_iteration >= 1, "first_iteration must be >= 1");
  const int first = config_.first_iteration;
  const int last = first + config_.iterations - 1;
  for (int i = first; i <= last; ++i) {
    // ---- K² multiplies -------------------------------------------------
    for (int u = 0; u < k; ++u) {
      for (int v = 0; v < k; ++v) {
        const std::uint64_t out_bytes = grid.part_size(u) * sizeof(double);
        const std::uint64_t in_bytes = grid.part_size(v) * sizeof(double);
        const std::string partial = BlockGrid::partial_name(base, i, u, v);
        create_vector_array(partial, matrix_.owner_of(u, v), out_bytes);

        Task t;
        t.name = mult_display(i, u, v);
        t.kind = "multiply";
        t.inputs.push_back(Interval{matrix_.name_of(u, v), 0, matrix_.bytes_of(u, v)});
        t.inputs.push_back(
            Interval{BlockGrid::vector_name(i == first ? base : out_base, i - 1, v), 0, in_bytes});
        if (config_.inter_iteration_sync && i > first) {
          t.inputs.push_back(Interval{sync_name(base, i - 1, false), 0, 1});
        }
        t.outputs.push_back(Interval{partial, 0, out_bytes});
        t.est_flops = 2.0 * static_cast<double>(matrix_.nnz_of(u, v));
        t.group = i;
        t.seq = static_cast<std::int64_t>(v) * k + u;
        t.preferred_node = matrix_.owner_of(u, v);
        t.work = [](TaskContext& ctx) {
          const auto x = ctx.input(1).as<double>();
          auto y = ctx.output(0).as<double>();
          spmv::multiply_parallel(spmv::CsrView::from_bytes(ctx.input(0).bytes()), x, y,
                                  ctx.pool());
        };
        graph_.add(std::move(t));
      }
    }

    // ---- optional global synchronization after the SpMV phase ----------
    if (config_.mode == ReductionMode::Simple) {
      const std::string token = sync_name(base, i, true);
      create_vector_array(token, 0, 1);
      Task t;
      t.name = "syncm^" + std::to_string(i);
      t.kind = "sync";
      for (int u = 0; u < k; ++u) {
        for (int v = 0; v < k; ++v) {
          t.inputs.push_back(Interval{BlockGrid::partial_name(base, i, u, v), 0,
                                      grid.part_size(u) * sizeof(double)});
        }
      }
      t.outputs.push_back(Interval{token, 0, 1});
      t.group = i;
      t.seq = static_cast<std::int64_t>(k) * k;
      t.preferred_node = 0;
      t.work = [](TaskContext& ctx) { ctx.output(0).bytes()[0] = std::byte{1}; };
      graph_.add(std::move(t));
    }

    // ---- reductions -----------------------------------------------------
    for (int u = 0; u < k; ++u) {
      const std::uint64_t out_bytes = grid.part_size(u) * sizeof(double);
      std::vector<Interval> reduce_inputs;

      if (config_.mode == ReductionMode::Interleaved) {
        // Group this row's partials by the node that produced them and
        // aggregate locally where a node produced more than one.
        std::map<int, std::vector<int>> by_node;  // node -> columns v
        for (int v = 0; v < k; ++v) by_node[matrix_.owner_of(u, v)].push_back(v);
        for (const auto& [node, columns] : by_node) {
          if (columns.size() == 1) {
            reduce_inputs.push_back(
                Interval{BlockGrid::partial_name(base, i, u, columns[0]), 0, out_bytes});
            continue;
          }
          const std::string agg = aggregate_name(base, i, u, node);
          create_vector_array(agg, node, out_bytes);
          Task t;
          t.name = "xagg_{" + std::to_string(u) + "}^" + std::to_string(i) + "@" +
                   std::to_string(node);
          t.kind = "aggregate";
          for (int v : columns) {
            t.inputs.push_back(Interval{BlockGrid::partial_name(base, i, u, v), 0, out_bytes});
          }
          t.outputs.push_back(Interval{agg, 0, out_bytes});
          t.est_flops = static_cast<double>((columns.size() - 1)) *
                        static_cast<double>(grid.part_size(u));
          t.group = i;
          t.seq = static_cast<std::int64_t>(k) * k + u;
          t.preferred_node = node;
          const auto n_in = columns.size();
          t.work = [n_in](TaskContext& ctx) {
            auto out = ctx.output(0).as<double>();
            std::vector<std::span<const double>> parts;
            parts.reserve(n_in);
            for (std::size_t p = 0; p < n_in; ++p) parts.push_back(ctx.input(p).as<double>());
            spmv::sum_vectors(parts, out, ctx.pool());
          };
          graph_.add(std::move(t));
          reduce_inputs.push_back(Interval{agg, 0, out_bytes});
        }
      } else {
        for (int v = 0; v < k; ++v) {
          reduce_inputs.push_back(
              Interval{BlockGrid::partial_name(base, i, u, v), 0, out_bytes});
        }
      }

      const std::string result = BlockGrid::vector_name(out_base, i, u);
      const int reducer = reduce_node(matrix_, u);
      create_vector_array(result, reducer, out_bytes);
      Task t;
      t.name = reduce_display(i, u);
      t.kind = "sum";
      const std::size_t data_inputs = reduce_inputs.size();
      t.inputs = std::move(reduce_inputs);
      if (config_.mode == ReductionMode::Simple) {
        t.inputs.push_back(Interval{sync_name(base, i, true), 0, 1});
      }
      t.outputs.push_back(Interval{result, 0, out_bytes});
      t.est_flops =
          static_cast<double>(data_inputs - 1) * static_cast<double>(grid.part_size(u));
      t.group = i;
      t.seq = static_cast<std::int64_t>(k) * k + k + u;
      // Where x_u is read next, else the paper's "first processor of each
      // row" (reduce_node). The inputs keep their order on any node, so
      // the sum is bitwise the same wherever it runs.
      t.preferred_node = reducer;
      t.work = [data_inputs](TaskContext& ctx) {
        auto out = ctx.output(0).as<double>();
        std::vector<std::span<const double>> parts;
        parts.reserve(data_inputs);
        for (std::size_t p = 0; p < data_inputs; ++p) parts.push_back(ctx.input(p).as<double>());
        spmv::sum_vectors(parts, out, ctx.pool());
      };
      graph_.add(std::move(t));
    }

    // ---- inter-iteration synchronization (reorthogonalization point) ----
    if (config_.inter_iteration_sync && i < last) {
      const std::string token = sync_name(base, i, false);
      create_vector_array(token, 0, 1);
      Task t;
      t.name = "sync^" + std::to_string(i);
      t.kind = "sync";
      for (int u = 0; u < k; ++u) {
        t.inputs.push_back(Interval{BlockGrid::vector_name(out_base, i, u), 0,
                                    grid.part_size(u) * sizeof(double)});
      }
      t.outputs.push_back(Interval{token, 0, 1});
      t.group = i;
      t.seq = static_cast<std::int64_t>(k) * k + 2 * k;
      t.preferred_node = 0;
      t.work = [](TaskContext& ctx) { ctx.output(0).bytes()[0] = std::byte{1}; };
      graph_.add(std::move(t));
    }
  }

  // Everything created here except the result is read only inside this
  // graph: the executor may free it once its last reader finishes.
  for (const auto& name : created_arrays_) {
    if (!is_final_iterate(name)) graph_.mark_transient(name);
  }
  if (config_.extend) config_.extend(graph_);
  graph_.build();
}

bool IteratedSpmv::is_final_iterate(const std::string& name) const {
  const int last = config_.first_iteration + config_.iterations - 1;
  for (int u = 0; u < matrix_.grid.k(); ++u) {
    if (name == BlockGrid::vector_name(result_base(), last, u)) return true;
  }
  return false;
}

std::vector<double> IteratedSpmv::gather_result() {
  DOOC_REQUIRE(cluster_ != nullptr, "gather_result() requires the storage-backed mode");
  return spmv::gather_vector(*cluster_, matrix_.grid, result_base(),
                             config_.first_iteration + config_.iterations - 1);
}

void IteratedSpmv::cleanup_intermediates() {
  DOOC_REQUIRE(cluster_ != nullptr, "cleanup_intermediates() requires the storage-backed mode");
  for (const auto& name : created_arrays_) {
    // Keep the final iterates; delete everything else.
    if (!is_final_iterate(name)) cluster_->node(0).delete_array(name);
  }
  created_arrays_.clear();
}

std::string IteratedSpmv::command_list() const {
  std::ostringstream os;
  const int k = matrix_.grid.k();
  DOOC_REQUIRE(config_.first_iteration >= 1, "first_iteration must be >= 1");
  const int first = config_.first_iteration;
  const int last = first + config_.iterations - 1;
  for (int i = first; i <= last; ++i) {
    for (int u = 0; u < k; ++u) {
      for (int v = 0; v < k; ++v) {
        os << mult_display(i, u, v) << " = A_{" << u << "," << v << "} * x_" << v << "^"
           << (i - 1) << "\n";
      }
    }
    for (int u = 0; u < k; ++u) {
      os << reduce_display(i, u) << " =";
      for (int v = 0; v < k; ++v) {
        os << (v == 0 ? " " : " + ") << mult_display(i, u, v);
      }
      os << "\n";
    }
  }
  return os.str();
}

std::string IteratedSpmv::dependency_list() const {
  std::ostringstream os;
  for (sched::TaskId t : graph_.topo_order()) {
    const Task& task = graph_.task(t);
    if (task.kind == "sync") continue;  // barriers are not Fig. 4 content
    os << task.name;
    if (task.kind == "multiply") {
      // Mention the matrix block the operation needs, as Fig. 4 does.
      const auto& a = task.inputs[0].array;
      os << " (" << a << ")";
    }
    os << " <-";
    bool any = false;
    for (sched::TaskId p : graph_.predecessors(t)) {
      if (graph_.task(p).kind == "sync") continue;
      os << (any ? ", " : " ") << graph_.task(p).name;
      any = true;
    }
    if (!any) os << " (initial data)";
    os << "\n";
  }
  return os.str();
}

}  // namespace dooc::solver
