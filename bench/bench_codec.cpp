// Block-codec sweep: compression ratio and encode/decode throughput of the
// per-block codec (spmv::codec) across codec variant × matrix kind on binary
// CRS blocks, plus a small end-to-end iterated-SpMV makespan comparison
// (raw vs adaptive) on a throttled device.
//
// The ratios are a pure function of the generator seeds and the encoder, so
// they diff exactly against bench/baselines/BENCH_codec.json on any machine
// (the bench_codec_check target); throughputs and wall times are machine-
// dependent and excluded from the gate.
//
// Self-asserts the tentpole acceptance shape: the power-law CSR index
// stream must shrink by at least 1.5x under the delta+varint pass.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "sched/engine.hpp"
#include "solver/iterated_spmv.hpp"
#include "spmv/codec.hpp"
#include "spmv/generator.hpp"
#include "storage/storage_cluster.hpp"

using namespace dooc;

namespace {

struct Kind {
  const char* name;
  spmv::CsrMatrix matrix;
};

struct Variant {
  const char* name;
  spmv::codec::CodecConfig cfg;
};

/// Median-of-reps timed pass over `fn`, returning GB/s of `bytes`.
template <typename Fn>
double gbps(std::uint64_t bytes, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t = bench::time_seconds(fn);
    if (t > 0.0) best = std::max(best, static_cast<double>(bytes) / t / 1e9);
  }
  return best;
}

/// End-to-end leg: 2-iteration SpMV on one node with a throttled device and
/// a budget that forces reloads — where the smaller on-disk blocks pay off.
double end_to_end_makespan(const spmv::codec::CodecConfig& codec) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("dooc_codec_e2e_" + std::to_string(::getpid()) +
                                                 "_" + spmv::codec::mode_name(codec.mode)))
          .string();
  storage::StorageConfig cfg;
  cfg.scratch_root = dir;
  cfg.memory_budget = 8ull << 20;
  cfg.throttle_read_bw = 150e6;
  cfg.codec = codec;
  storage::StorageCluster cluster(1, cfg);

  auto m = spmv::generate_power_law(4096, 4096, 24.0, 1.5, 0xc0dec);
  const auto owner = spmv::column_strip_owner(1);
  const auto deployed = spmv::deploy_matrix(cluster, m, 4, owner);
  spmv::create_distributed_vector(cluster, deployed.grid, owner, "x", 0,
                                  [](std::uint64_t) { return 1.0; });
  solver::IteratedSpmvConfig config;
  config.iterations = 2;
  solver::IteratedSpmv driver(cluster, deployed, config);
  sched::Engine engine(cluster, sched::EngineConfig{});
  const double t = bench::time_seconds([&] { driver.run(engine); });
  std::filesystem::remove_all(dir);
  return t;
}

}  // namespace

int main() {
  bench::section("block codec sweep — ratio and throughput per codec x matrix kind");

  std::vector<Kind> kinds;
  kinds.push_back({"uniform", spmv::generate_uniform_gap(8192, 8192, 4.0, 0xc0dec)});
  kinds.push_back({"power-law", spmv::generate_power_law(8192, 8192, 16.0, 1.5, 0xc0dec)});
  kinds.push_back({"dense-band", spmv::generate_banded(8192, 48, 8.0)});

  const Variant variants[] = {
      {"on", spmv::codec::CodecConfig{spmv::codec::Mode::On}},
      {"on-noshuffle", [] {
         spmv::codec::CodecConfig c;
         c.mode = spmv::codec::Mode::On;
         c.shuffle_values = false;
         return c;
       }()},
      {"adaptive", spmv::codec::CodecConfig{spmv::codec::Mode::Adaptive}},
  };

  bench::Table table({"kind", "codec", "raw", "ratio", "index ratio", "value ratio",
                      "enc GB/s", "dec GB/s"});
  bench::JsonReport report;
  report.meta("bench", "codec");
  report.meta("rows", static_cast<std::uint64_t>(8192));

  int failures = 0;
  double power_law_csr_index_ratio = 0.0;
  for (const Kind& kind : kinds) {
    std::vector<std::byte> raw;
    serialize_csr(kind.matrix, raw);
    for (const Variant& variant : variants) {
      spmv::codec::EncodeStats stats;
      auto frame = spmv::codec::encode_block(raw, variant.cfg, &stats);
      double enc_gbps = 0.0;
      double dec_gbps = 0.0;
      if (frame) {
        // Bitwise round-trip is part of the bench contract, not just the
        // unit tests: a codec that is fast but lossy is worthless here.
        const DataBuffer decoded = spmv::codec::decode_block(frame->span(), raw.size());
        if (decoded.size() != raw.size() ||
            std::memcmp(decoded.data(), raw.data(), raw.size()) != 0) {
          std::printf("FAIL: %s/%s round-trip not bitwise identical\n", kind.name, variant.name);
          ++failures;
        }
        enc_gbps = gbps(raw.size(), [&] {
          auto f = spmv::codec::encode_block(raw, variant.cfg);
        });
        dec_gbps = gbps(raw.size(), [&] {
          auto d = spmv::codec::decode_block(frame->span(), raw.size());
        });
      }
      const double ratio = frame ? stats.ratio() : 1.0;
      const double index_ratio = frame ? stats.index_ratio() : 1.0;
      const double value_ratio =
          frame && stats.value_encoded_bytes > 0
              ? static_cast<double>(stats.value_raw_bytes) / stats.value_encoded_bytes
              : 1.0;
      if (variant.cfg.mode == spmv::codec::Mode::On && std::string(kind.name) == "power-law") {
        power_law_csr_index_ratio = index_ratio;
      }
      table.add_row({kind.name, variant.name, format_bytes(static_cast<double>(raw.size())),
                     bench::fmt("%.2fx", ratio),
                     bench::fmt("%.2fx", index_ratio), bench::fmt("%.2fx", value_ratio),
                     bench::fmt("%.2f", enc_gbps), bench::fmt("%.2f", dec_gbps)});
      report.add_record()
          .field("kind", kind.name)
          .field("format", "csr")  // part of the baseline's record identity
          .field("codec", variant.name)
          .field("raw_bytes", static_cast<std::uint64_t>(raw.size()))
          .field("encoded_bytes", frame ? static_cast<std::uint64_t>(frame->size())
                                        : static_cast<std::uint64_t>(raw.size()))
          .field("ratio", ratio)
          .field("index_ratio", index_ratio)
          .field("value_ratio", value_ratio)
          .field("encode_gbps", enc_gbps)
          .field("decode_gbps", dec_gbps);
    }
  }
  table.print();
  std::printf("(index streams carry the win: column deltas varint-pack; f64 values only\n"
              " yield on structured matrices, which is what the adaptive gate is for)\n");

  bench::section("end-to-end — 2-iteration SpMV, throttled device, raw vs adaptive codec");
  const double makespan_raw = end_to_end_makespan(spmv::codec::CodecConfig{});
  const double makespan_adaptive =
      end_to_end_makespan(spmv::codec::CodecConfig{spmv::codec::Mode::Adaptive});
  std::printf("  raw %.2f s   adaptive %.2f s   (%.0f%% of raw)\n", makespan_raw,
              makespan_adaptive, 100.0 * makespan_adaptive / makespan_raw);
  report.meta("makespan_raw_s", makespan_raw);
  report.meta("makespan_adaptive_s", makespan_adaptive);

  // Tentpole acceptance: >= 1.5x reduction of the power-law CSR index stream.
  const bool index_win = power_law_csr_index_ratio >= 1.5;
  std::printf("\npower-law CSR index-stream ratio %.2fx >= 1.50x: %s\n",
              power_law_csr_index_ratio, index_win ? "YES" : "NO");
  if (!index_win) ++failures;

  const std::string artifact = "BENCH_codec.json";
  if (!report.write(artifact)) {
    std::printf("FAILED to write %s\n", artifact.c_str());
    return 1;
  }
  std::printf("wrote %s\n", artifact.c_str());
  return failures == 0 ? 0 : 1;
}
