// Typed messages carried in dooc::net frame payloads, serialized with the
// common BinaryWriter/BinaryReader layer. Decoders treat the payload as
// untrusted input: element counts and string lengths are bounded against
// the actual payload size with the same overflow-latching ByteCount
// arithmetic the spmv wire layer uses, so a hostile count cannot wrap a
// size computation or drive a multi-gigabyte allocation. Every decode
// failure surfaces as FrameError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "net/wire.hpp"

namespace dooc::net {

/// First frame on every connection, both directions (connector sends
/// Hello, acceptor answers HelloAck with its own identity).
struct HelloMsg {
  NodeId node = 0;
  std::uint64_t os_pid = 0;

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static HelloMsg decode(const DataBuffer& payload);
};

/// Coordinator -> node: store a deployed single-block array.
struct PutBlockMsg {
  std::string name;
  DataBuffer bytes;

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static PutBlockMsg decode(const DataBuffer& payload);
};

/// Any -> home node: send me this array. Reply is FetchOk / FetchFail with
/// the request's frame tag echoed.
struct FetchReqMsg {
  std::string name;

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static FetchReqMsg decode(const DataBuffer& payload);
};

struct FetchOkMsg {
  std::string name;
  DataBuffer bytes;

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static FetchOkMsg decode(const DataBuffer& payload);
};

struct FetchFailMsg {
  std::string name;
  std::string error;

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static FetchFailMsg decode(const DataBuffer& payload);
};

/// Coordinator -> home node: drop these arrays. No task of the running
/// graph reads them again; should one be needed after all (a re-run after
/// a node death), the coordinator re-derives it from its lineage.
struct ReleaseMsg {
  std::vector<std::string> names;

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static ReleaseMsg decode(const DataBuffer& payload);
};

/// One input of a remote task: where the bytes live right now. home ==
/// kDurableOnly means a deployed block's home node died — read the durable
/// copy.
constexpr NodeId kDurableOnly = -2;

struct TaskInput {
  std::string array;
  std::uint64_t bytes = 0;
  NodeId home = 0;
};

struct TaskOutput {
  std::string array;
  std::uint64_t bytes = 0;
};

/// Coordinator -> node: execute one task of the DAG. The frame tag is the
/// TaskId. Task semantics travel as the `kind` string of the existing
/// sched::Task model ("multiply", "sum", "aggregate", "sync"): the worker
/// binds the same spmv kernels the in-process engine's task bodies call,
/// so results are bitwise identical across backends.
struct ExecTaskMsg {
  std::string name;  ///< display name ("x_{0,1}^2"), for traces/errors
  std::string kind;
  std::vector<TaskInput> inputs;
  std::vector<TaskOutput> outputs;

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static ExecTaskMsg decode(const DataBuffer& payload);
};

/// Whether a `kind` task's kernel reads input `index`: multiply reads
/// inputs 0-1, sum and aggregate the inputs shaped like their output, sync
/// none. The other inputs only order the task and are never fetched.
[[nodiscard]] bool kernel_reads(const std::string& kind, std::size_t index,
                                std::uint64_t input_bytes, std::uint64_t output_bytes);

/// Node -> coordinator: a task finished (frame tag = TaskId).
struct TaskDoneMsg {
  bool ok = false;
  std::string error;                  ///< set when !ok
  std::uint64_t fetched_bytes = 0;    ///< remote input bytes pulled for it
  double exec_seconds = 0.0;
  /// A failed task's input home that went down (-1: none; only a failed
  /// TaskDone carries it on the wire).
  NodeId lost_home = -1;

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static TaskDoneMsg decode(const DataBuffer& payload);
};

/// Node -> coordinator: per-node counters for the launcher's report.
struct NodeReportMsg {
  std::uint64_t os_pid = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t blocks_stored = 0;
  std::uint64_t bytes_stored = 0;
  /// Blocks (and their bytes) the node holds now: stored minus released,
  /// plus durable reads it keeps.
  std::uint64_t blocks_resident = 0;
  std::uint64_t bytes_resident = 0;
  std::uint64_t fetches_served = 0;
  std::uint64_t fetch_bytes_out = 0;
  std::uint64_t fetches_issued = 0;
  std::uint64_t fetch_bytes_in = 0;
  std::uint64_t durable_fallbacks = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Fetch round-trip latency quantiles, seconds (count == fetches_issued).
  double fetch_p50_s = 0.0;
  double fetch_p99_s = 0.0;
  double fetch_max_s = 0.0;
  std::string trace_path;  ///< where this process will write its trace

  [[nodiscard]] DataBuffer encode() const;
  [[nodiscard]] static NodeReportMsg decode(const DataBuffer& payload);
};

}  // namespace dooc::net
