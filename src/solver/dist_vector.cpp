#include "solver/dist_vector.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "sched/engine.hpp"

namespace dooc::solver {

using sched::Task;
using sched::TaskContext;
using storage::Interval;

template <typename Fn>
void DistVectorOps::for_each_part(const std::string& base, int index, Fn&& fn) {
  for (int u = 0; u < grid_.k(); ++u) {
    const std::string name = part_name(base, index, u);
    const int node = owner_(u, u);
    const std::uint64_t bytes = grid_.part_size(u) * sizeof(double);
    fn(u, node, name, bytes);
  }
}

void DistVectorOps::create(const std::string& base, int index,
                           const std::function<double(std::uint64_t)>& value) {
  for_each_part(base, index, [&](int u, int node, const std::string& name, std::uint64_t bytes) {
    auto& store = cluster_.node(node);
    store.create_array(name, bytes, bytes);
    auto handle = store.request_write({name, 0, bytes}).get();
    auto span = handle.as<double>();
    const std::uint64_t base_index = grid_.part_begin(u);
    for (std::uint64_t i = 0; i < span.size(); ++i) span[i] = value(base_index + i);
  });
}

void DistVectorOps::create_from(const std::string& base, int index,
                                const std::vector<double>& data) {
  DOOC_REQUIRE(data.size() == grid_.n(), "dense source size mismatch");
  create(base, index, [&](std::uint64_t i) { return data[i]; });
}

std::vector<double> DistVectorOps::gather(const std::string& base, int index) {
  std::vector<double> out(grid_.n());
  for_each_part(base, index, [&](int u, int node, const std::string& name, std::uint64_t bytes) {
    auto handle = cluster_.node(node).request_read({name, 0, bytes}).get();
    auto span = handle.as<double>();
    std::copy(span.begin(), span.end(),
              out.begin() + static_cast<std::ptrdiff_t>(grid_.part_begin(u)));
  });
  return out;
}

OrthoArrays DistVectorOps::append_orthonormalize(sched::TaskGraph& graph,
                                                 const OrthoSpec& spec) {
  DOOC_REQUIRE(spec.first >= 0 && spec.first <= spec.last, "empty basis window");
  DOOC_REQUIRE(spec.passes >= 1, "need at least one Gram-Schmidt pass");
  const auto k = static_cast<std::size_t>(grid_.k());
  const int m = spec.last - spec.first + 1;
  const std::string step = "^" + std::to_string(spec.group);
  const auto str = [](std::size_t i) { return std::to_string(i); };
  const auto home = [this](std::size_t u) { return owner_(static_cast<int>(u), static_cast<int>(u)); };
  const auto part_bytes = [this](std::size_t u) {
    return grid_.part_size(static_cast<int>(u)) * sizeof(double);
  };

  OrthoArrays out;
  std::uint64_t widest = 1;
  for (std::size_t u = 0; u < k; ++u) widest = std::max(widest, part_bytes(u));
  const std::uint64_t fit = cluster_.node(0).config().memory_budget / 4 / widest;
  out.panel_width = static_cast<int>(std::clamp<std::uint64_t>(fit, 1, static_cast<std::uint64_t>(m)));
  // Panel p holds basis vectors [begin[p], begin[p+1]).
  const auto panels = static_cast<std::size_t>((m + out.panel_width - 1) / out.panel_width);
  std::vector<int> begin;
  for (std::size_t p = 0; p <= panels; ++p) {
    begin.push_back(std::min(spec.last + 1, spec.first + static_cast<int>(p) * out.panel_width));
  }

  const auto create = [&](const std::string& name, int node, std::uint64_t bytes, bool internal) {
    cluster_.node(node).create_array(name, bytes, bytes);
    if (internal) {
      out.internal.push_back(name);
      graph.mark_transient(name);
    }
    return Interval{name, 0, bytes};
  };
  std::int64_t seq = 0;
  const auto add = [&](Task t, int node) {
    t.group = spec.group;
    t.seq = seq++;
    t.preferred_node = node;
    graph.add(std::move(t));
  };

  // Appends the parts of panel p of part u, in order, to a task's inputs.
  const auto add_panel = [&](Task& t, std::size_t u, std::size_t p) {
    for (int i = begin[p]; i < begin[p + 1]; ++i) {
      t.inputs.push_back(
          Interval{part_name(spec.basis_base, i, static_cast<int>(u)), 0, part_bytes(u)});
    }
  };

  // w[u]: the current version of part u (write-once: every update makes a
  // new array).
  std::vector<Interval> w;
  for (std::size_t u = 0; u < k; ++u) {
    w.push_back(Interval{part_name(spec.w_base, spec.w_index, static_cast<int>(u)), 0, part_bytes(u)});
  }
  // Flops of one dot or update task: two per element of each part in panel p.
  const auto flops = [&](std::size_t u, std::size_t p) {
    return 2.0 * (begin[p + 1] - begin[p]) * static_cast<double>(grid_.part_size(static_cast<int>(u)));
  };

  for (int pass = 1; pass <= spec.passes; ++pass) {
    const std::string ps = std::to_string(pass);

    // Partial coefficients <w_u, V_{u,i}>, one task per part and panel.
    Task reduce;
    for (std::size_t u = 0; u < k; ++u) {
      for (std::size_t p = 0; p < panels; ++p) {
        Task t;
        t.name = "dot" + ps + "_{" + str(u) + "," + str(p) + "}" + step;
        t.kind = "dot";
        t.inputs.push_back(w[u]);
        add_panel(t, u, p);
        t.outputs.push_back(create(spec.prefix + "d" + ps + "_" + str(u) + "_" + str(p), home(u),
                                   (begin[p + 1] - begin[p]) * sizeof(double), true));
        t.est_flops = flops(u, p);
        t.work = [](TaskContext& ctx) {
          const auto wu = ctx.input(0).as<double>();
          auto c = ctx.output(0).as<double>();
          for (std::size_t i = 0; i < c.size(); ++i) {
            const auto v = ctx.input(i + 1).as<double>();
            double s = 0.0;
            for (std::size_t x = 0; x < wu.size(); ++x) s += wu[x] * v[x];
            c[i] = s;
          }
        };
        reduce.inputs.push_back(t.outputs[0]);
        add(std::move(t), home(u));
      }
    }

    // c_i = sum over u = 0..K-1, in that order. Input u * panels + p holds
    // panel p of part u.
    const Interval coeff = create(spec.prefix + "c" + ps, 0,
                                  static_cast<std::uint64_t>(m) * sizeof(double), false);
    out.coefficients.push_back(coeff.array);
    reduce.name = "dotsum" + ps + step;
    reduce.kind = "reduce";
    reduce.outputs.push_back(coeff);
    reduce.est_flops = static_cast<double>(k) * m;
    reduce.work = [begin](TaskContext& ctx) {
      auto c = ctx.output(0).as<double>();
      std::fill(c.begin(), c.end(), 0.0);
      const std::size_t panels = begin.size() - 1;
      for (std::size_t in = 0; in < ctx.num_inputs(); ++in) {
        const auto partial = ctx.input(in).as<double>();
        double* at = c.data() + (begin[in % panels] - begin[0]);
        for (std::size_t i = 0; i < partial.size(); ++i) at[i] += partial[i];
      }
    };
    add(std::move(reduce), 0);

    // w_u <- w_u - c_i V_{u,i} for ascending i, chained panel by panel.
    for (std::size_t u = 0; u < k; ++u) {
      for (std::size_t p = 0; p < panels; ++p) {
        Task t;
        t.name = "orth" + ps + "_{" + str(u) + "," + str(p) + "}" + step;
        t.kind = "update";
        t.inputs = {w[u], coeff};
        add_panel(t, u, p);
        w[u] = create(spec.prefix + "w" + ps + "_" + str(u) + "_" + str(p), home(u), part_bytes(u),
                      true);
        t.outputs.push_back(w[u]);
        t.est_flops = flops(u, p);
        t.work = [offset = begin[p] - begin[0]](TaskContext& ctx) {
          const auto w_in = ctx.input(0).as<double>();
          const double* c = ctx.input(1).as<double>().data() + offset;
          auto y = ctx.output(0).as<double>();
          std::copy(w_in.begin(), w_in.end(), y.begin());
          for (std::size_t in = 2; in < ctx.num_inputs(); ++in) {
            const double ci = c[in - 2];
            const auto v = ctx.input(in).as<double>();
            for (std::size_t x = 0; x < y.size(); ++x) y[x] -= ci * v[x];
          }
        };
        add(std::move(t), home(u));
      }
    }
  }

  // ||w|| from per-part sums of squares, then v = w / ||w|| part by part.
  Task norm;
  for (std::size_t u = 0; u < k; ++u) {
    Task t;
    t.name = "sumsq_" + str(u) + step;
    t.kind = "dot";
    t.inputs.push_back(w[u]);
    t.outputs.push_back(create(spec.prefix + "s" + str(u), home(u), sizeof(double), true));
    t.est_flops = 2.0 * static_cast<double>(grid_.part_size(static_cast<int>(u)));
    t.work = [](TaskContext& ctx) {
      double s = 0.0;
      for (const double x : ctx.input(0).as<double>()) s += x * x;
      ctx.output(0).as<double>()[0] = s;
    };
    norm.inputs.push_back(t.outputs[0]);
    add(std::move(t), home(u));
  }
  const Interval norm_out = create(spec.prefix + "n", 0, sizeof(double), false);
  out.norm = norm_out.array;
  norm.name = "norm" + step;
  norm.kind = "reduce";
  norm.outputs.push_back(norm_out);
  norm.est_flops = static_cast<double>(k);
  norm.work = [](TaskContext& ctx) {
    double s = 0.0;
    for (std::size_t in = 0; in < ctx.num_inputs(); ++in) s += ctx.input(in).as<double>()[0];
    ctx.output(0).as<double>()[0] = std::sqrt(s);
  };
  add(std::move(norm), 0);

  for (std::size_t u = 0; u < k; ++u) {
    Task t;
    t.name = "scale_" + str(u) + step;
    t.kind = "scale";
    t.inputs = {w[u], norm_out};
    t.outputs.push_back(create(part_name(spec.basis_base, spec.out_index, static_cast<int>(u)),
                               home(u), part_bytes(u), false));
    t.est_flops = static_cast<double>(grid_.part_size(static_cast<int>(u)));
    t.work = [](TaskContext& ctx) {
      const auto w_in = ctx.input(0).as<double>();
      const double inv = 1.0 / ctx.input(1).as<double>()[0];
      auto v = ctx.output(0).as<double>();
      for (std::size_t x = 0; x < v.size(); ++x) v[x] = w_in[x] * inv;
    };
    add(std::move(t), home(u));
  }
  return out;
}

std::vector<double> DistVectorOps::read_values(const std::string& name) {
  const auto meta = cluster_.node(0).array_meta(name);
  DOOC_REQUIRE(meta.has_value(), "no array '" + name + "'");
  auto handle = cluster_.node(meta->home_node).request_read({name, 0, meta->size}).get();
  const auto values = handle.as<double>();
  return {values.begin(), values.end()};
}

void DistVectorOps::flush(const std::string& base, int index) {
  for_each_part(base, index, [&](int /*u*/, int node, const std::string& name, std::uint64_t) {
    cluster_.node(node).flush_array(name);
  });
}

void DistVectorOps::remove(const std::string& base, int index) {
  for_each_part(base, index, [&](int /*u*/, int node, const std::string& name, std::uint64_t) {
    cluster_.node(node).delete_array(name);
  });
}

void DistVectorOps::remove_arrays(const std::vector<std::string>& names) {
  for (const auto& name : names) cluster_.node(0).delete_array(name);
}

bool DistVectorOps::exists(const std::string& base, int index) {
  bool all = true;
  for_each_part(base, index, [&](int /*u*/, int node, const std::string& name, std::uint64_t) {
    if (!cluster_.node(node).array_meta(name).has_value()) all = false;
  });
  return all;
}

}  // namespace dooc::solver
