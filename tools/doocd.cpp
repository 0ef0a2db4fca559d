// doocd — one DOoC cluster node as a real OS process.
//
// Hosts the storage + executor role of one node: listens on its manifest
// address, dials its lower-id peers, then serves PutBlock / FetchReq /
// ExecTask / ReportReq until a Shutdown frame (or SIGTERM/SIGINT).
//
//   doocd --manifest=cluster.txt --node=2 [--durable-dir=DIR]
//         [--exec-threads=N] [--log-level=trace|debug|info|warn|error]
//         [--metrics-port=P]
//
// --metrics-port serves this daemon's metrics registry (plus the live
// transport/executor scalars from report()) as Prometheus text on
// http://127.0.0.1:P/metrics while the daemon runs.
//
// Tracing: set DOOC_TRACE=/path/node2.json in the environment (the
// launcher does this per node); the trace is written on clean exit.
// Codec: DOOC_CODEC (e.g. "adaptive") turns on compressed durable blocks
// for this daemon; decoding of frames from peers or the coordinator works
// regardless, so nodes with different codec settings interoperate.
#include <csignal>
#include <cstdio>
#include <memory>

#include "common/log.hpp"
#include "common/options.hpp"
#include "net/node_server.hpp"
#include "obs/metrics.hpp"
#include "obs/prom_http.hpp"
#include "obs/trace.hpp"

namespace {

dooc::net::NodeServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

}  // namespace

int run(const dooc::Options& opts) {
  using namespace dooc;
  if (!opts.contains("manifest") || !opts.contains("node")) {
    std::fprintf(stderr,
                 "usage: doocd --manifest=FILE --node=ID [--durable-dir=DIR]\n"
                 "             [--exec-threads=N] [--log-level=LVL]\n");
    return 2;
  }
  Log::set_level(Log::parse_level(opts.get("log-level", "warn")));
  const auto node = static_cast<net::NodeId>(opts.get_int("node", 0));
  const int exec_threads = static_cast<int>(opts.get_int("exec-threads", 1));
  const int metrics_port = static_cast<int>(opts.get_int("metrics-port", 0));
  obs::TraceSession::instance().init_from_env();

  try {
    const net::Manifest manifest = net::Manifest::parse_file(opts.get("manifest"));

    net::SocketTransportConfig tcfg;
    auto transport = net::make_node_transport(manifest, node, tcfg);

    net::NodeServerConfig scfg;
    scfg.node = node;
    scfg.durable_dir = opts.get("durable-dir");
    scfg.exec_threads = exec_threads;
    net::NodeServer server(std::move(transport), scfg);

    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    // Live scrape endpoint: the registry is node-scoped already; overlay
    // the report() scalars that otherwise only reach the registry at exit
    // so a mid-run scrape sees the executor/transport counters too.
    std::unique_ptr<obs::PromHttpServer> scrape;
    if (metrics_port > 0) {
      scrape = std::make_unique<obs::PromHttpServer>(metrics_port, [&server, node] {
        obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
        const net::NodeReportMsg rep = server.report();
        obs::MetricsSnapshot live;
        const auto put = [&live, node](const char* name, std::uint64_t v) {
          obs::MetricsSnapshot::Entry e;
          e.kind = obs::MetricKind::Counter;
          e.count = v;
          live.entries[{name, node}] = e;
        };
        put("net.tasks_executed", rep.tasks_executed);
        put("net.blocks_stored", rep.blocks_stored);
        put("net.bytes_stored", rep.bytes_stored);
        put("net.fetches_served", rep.fetches_served);
        put("net.fetch_bytes_out", rep.fetch_bytes_out);
        put("net.fetches_issued", rep.fetches_issued);
        put("net.fetch_bytes_in", rep.fetch_bytes_in);
        put("net.durable_fallbacks", rep.durable_fallbacks);
        put("net.frames_sent", rep.frames_sent);
        put("net.frames_received", rep.frames_received);
        put("net.bytes_sent", rep.bytes_sent);
        put("net.bytes_received", rep.bytes_received);
        snap.merge(live);
        return snap.to_prometheus();
      });
      DOOC_LOG(Info, "doocd") << "metrics on http://127.0.0.1:" << scrape->port() << "/metrics";
    }

    server.run();

    scrape.reset();
    g_server = nullptr;
    server.transport().close();
    // Final counter samples into the trace, so `dooc_tracecat --metrics`
    // over the per-node trace files reconstructs the cluster's totals.
    const net::NodeReportMsg rep = server.report();
    auto& metrics = obs::Metrics::instance();
    metrics.counter("net.tasks_executed", node).add(rep.tasks_executed);
    metrics.counter("net.blocks_stored", node).add(rep.blocks_stored);
    metrics.counter("net.bytes_stored", node).add(rep.bytes_stored);
    metrics.counter("net.fetches_served", node).add(rep.fetches_served);
    metrics.counter("net.fetch_bytes_out", node).add(rep.fetch_bytes_out);
    metrics.counter("net.fetches_issued", node).add(rep.fetches_issued);
    metrics.counter("net.fetch_bytes_in", node).add(rep.fetch_bytes_in);
    metrics.counter("net.durable_fallbacks", node).add(rep.durable_fallbacks);
    obs::MetricsSampler::flush_once();
    obs::TraceSession::instance().stop();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "doocd: %s\n", e.what());
    return 1;
  }
}

int main(int argc, char** argv) { return dooc::Options::run_tool("doocd", argc, argv, run); }
