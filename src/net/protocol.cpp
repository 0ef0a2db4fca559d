#include "net/protocol.hpp"

#include "common/serialize.hpp"
#include "spmv/wire.hpp"

namespace dooc::net {

namespace {

/// Frame payloads are untrusted; every count/length read off the wire is
/// checked against the bytes actually present *with overflow-latching
/// arithmetic* before anything is allocated or copied. BinaryReader's own
/// truncation checks throw IoError; rewrap as FrameError so transport
/// callers see one typed failure mode.
constexpr std::uint64_t kMaxListElements = 1u << 20;

[[noreturn]] void malformed(const std::string& what) {
  throw FrameError("malformed message: " + what);
}

/// A count field must describe data that can actually fit in the payload:
/// count * min_elem_bytes (overflow-checked) must not exceed what remains.
void check_count(std::uint64_t count, std::uint64_t min_elem_bytes, const BinaryReader& r,
                 const char* what) {
  if (count > kMaxListElements) malformed(std::string(what) + ": count too large");
  std::uint64_t total = 0;
  if (!spmv::wire::checked_mul(count, min_elem_bytes, total) || total > r.remaining()) {
    malformed(std::string(what) + ": count exceeds payload");
  }
}

std::string get_name(BinaryReader& r, const char* what) {
  const auto len = r.get<std::uint64_t>();
  if (len > r.remaining()) malformed(std::string(what) + ": string length exceeds payload");
  std::string s(len, '\0');
  if (len != 0) r.get_raw(s.data(), len);
  return s;
}

DataBuffer get_blob(BinaryReader& r, const char* what) {
  const auto len = r.get<std::uint64_t>();
  if (len > r.remaining()) malformed(std::string(what) + ": blob length exceeds payload");
  DataBuffer b(static_cast<std::size_t>(len));
  if (len != 0) r.get_raw(b.data(), len);
  return b;
}

void put_blob(BinaryWriter& w, const DataBuffer& b) {
  w.put<std::uint64_t>(b.size());
  w.put_raw(b.data(), b.size());
}

template <typename Fn>
auto decode_guarded(const DataBuffer& payload, const char* what, Fn&& fn) {
  try {
    BinaryReader r(payload);
    return fn(r);
  } catch (const FrameError&) {
    throw;
  } catch (const IoError& e) {
    throw FrameError("malformed " + std::string(what) + ": " + e.what());
  }
}

}  // namespace

DataBuffer HelloMsg::encode() const {
  BinaryWriter w;
  w.put<std::int32_t>(node);
  w.put<std::uint64_t>(os_pid);
  return w.take();
}

HelloMsg HelloMsg::decode(const DataBuffer& payload) {
  return decode_guarded(payload, "hello", [](BinaryReader& r) {
    HelloMsg m;
    m.node = r.get<std::int32_t>();
    m.os_pid = r.get<std::uint64_t>();
    return m;
  });
}

DataBuffer PutBlockMsg::encode() const {
  BinaryWriter w;
  w.put_string(name);
  put_blob(w, bytes);
  return w.take();
}

PutBlockMsg PutBlockMsg::decode(const DataBuffer& payload) {
  return decode_guarded(payload, "put-block", [](BinaryReader& r) {
    PutBlockMsg m;
    m.name = get_name(r, "put-block name");
    m.bytes = get_blob(r, "put-block bytes");
    return m;
  });
}

DataBuffer FetchReqMsg::encode() const {
  BinaryWriter w;
  w.put_string(name);
  return w.take();
}

FetchReqMsg FetchReqMsg::decode(const DataBuffer& payload) {
  return decode_guarded(payload, "fetch-req", [](BinaryReader& r) {
    FetchReqMsg m;
    m.name = get_name(r, "fetch-req name");
    return m;
  });
}

DataBuffer FetchOkMsg::encode() const {
  BinaryWriter w;
  w.put_string(name);
  put_blob(w, bytes);
  return w.take();
}

FetchOkMsg FetchOkMsg::decode(const DataBuffer& payload) {
  return decode_guarded(payload, "fetch-ok", [](BinaryReader& r) {
    FetchOkMsg m;
    m.name = get_name(r, "fetch-ok name");
    m.bytes = get_blob(r, "fetch-ok bytes");
    return m;
  });
}

DataBuffer FetchFailMsg::encode() const {
  BinaryWriter w;
  w.put_string(name);
  w.put_string(error);
  return w.take();
}

FetchFailMsg FetchFailMsg::decode(const DataBuffer& payload) {
  return decode_guarded(payload, "fetch-fail", [](BinaryReader& r) {
    FetchFailMsg m;
    m.name = get_name(r, "fetch-fail name");
    m.error = get_name(r, "fetch-fail error");
    return m;
  });
}

DataBuffer ExecTaskMsg::encode() const {
  BinaryWriter w;
  w.put_string(name);
  w.put_string(kind);
  w.put<std::uint64_t>(inputs.size());
  for (const auto& in : inputs) {
    w.put_string(in.array);
    w.put<std::uint64_t>(in.bytes);
    w.put<std::int32_t>(in.home);
  }
  w.put<std::uint64_t>(outputs.size());
  for (const auto& out : outputs) {
    w.put_string(out.array);
    w.put<std::uint64_t>(out.bytes);
  }
  return w.take();
}

ExecTaskMsg ExecTaskMsg::decode(const DataBuffer& payload) {
  return decode_guarded(payload, "exec-task", [](BinaryReader& r) {
    ExecTaskMsg m;
    m.name = get_name(r, "exec-task name");
    m.kind = get_name(r, "exec-task kind");

    const auto n_in = r.get<std::uint64_t>();
    // Each input needs at least a name length + bytes + home = 20 bytes.
    check_count(n_in, 20, r, "exec-task inputs");
    m.inputs.reserve(static_cast<std::size_t>(n_in));
    for (std::uint64_t i = 0; i < n_in; ++i) {
      TaskInput in;
      in.array = get_name(r, "exec-task input name");
      in.bytes = r.get<std::uint64_t>();
      in.home = r.get<std::int32_t>();
      m.inputs.push_back(std::move(in));
    }

    const auto n_out = r.get<std::uint64_t>();
    check_count(n_out, 16, r, "exec-task outputs");
    m.outputs.reserve(static_cast<std::size_t>(n_out));
    for (std::uint64_t i = 0; i < n_out; ++i) {
      TaskOutput out;
      out.array = get_name(r, "exec-task output name");
      out.bytes = r.get<std::uint64_t>();
      m.outputs.push_back(std::move(out));
    }
    return m;
  });
}

bool kernel_reads(const std::string& kind, std::size_t index, std::uint64_t input_bytes,
                  std::uint64_t output_bytes) {
  if (kind == "multiply") return index < 2;
  if (kind == "sum" || kind == "aggregate") return input_bytes == output_bytes;
  return kind != "sync";
}

DataBuffer TaskDoneMsg::encode() const {
  BinaryWriter w;
  w.put<std::uint8_t>(ok ? 1 : 0);
  w.put_string(error);
  w.put<std::uint64_t>(fetched_bytes);
  w.put<double>(exec_seconds);
  if (!ok) w.put<std::int32_t>(lost_home);
  return w.take();
}

TaskDoneMsg TaskDoneMsg::decode(const DataBuffer& payload) {
  return decode_guarded(payload, "task-done", [](BinaryReader& r) {
    TaskDoneMsg m;
    m.ok = r.get<std::uint8_t>() != 0;
    m.error = get_name(r, "task-done error");
    m.fetched_bytes = r.get<std::uint64_t>();
    m.exec_seconds = r.get<double>();
    if (!m.ok) m.lost_home = r.get<std::int32_t>();
    return m;
  });
}

DataBuffer NodeReportMsg::encode() const {
  BinaryWriter w;
  w.put<std::uint64_t>(os_pid);
  w.put<std::uint64_t>(tasks_executed);
  w.put<std::uint64_t>(blocks_stored);
  w.put<std::uint64_t>(bytes_stored);
  w.put<std::uint64_t>(fetches_served);
  w.put<std::uint64_t>(fetch_bytes_out);
  w.put<std::uint64_t>(fetches_issued);
  w.put<std::uint64_t>(fetch_bytes_in);
  w.put<std::uint64_t>(durable_fallbacks);
  w.put<std::uint64_t>(frames_sent);
  w.put<std::uint64_t>(frames_received);
  w.put<std::uint64_t>(bytes_sent);
  w.put<std::uint64_t>(bytes_received);
  w.put<double>(fetch_p50_s);
  w.put<double>(fetch_p99_s);
  w.put<double>(fetch_max_s);
  w.put_string(trace_path);
  return w.take();
}

NodeReportMsg NodeReportMsg::decode(const DataBuffer& payload) {
  return decode_guarded(payload, "report", [](BinaryReader& r) {
    NodeReportMsg m;
    m.os_pid = r.get<std::uint64_t>();
    m.tasks_executed = r.get<std::uint64_t>();
    m.blocks_stored = r.get<std::uint64_t>();
    m.bytes_stored = r.get<std::uint64_t>();
    m.fetches_served = r.get<std::uint64_t>();
    m.fetch_bytes_out = r.get<std::uint64_t>();
    m.fetches_issued = r.get<std::uint64_t>();
    m.fetch_bytes_in = r.get<std::uint64_t>();
    m.durable_fallbacks = r.get<std::uint64_t>();
    m.frames_sent = r.get<std::uint64_t>();
    m.frames_received = r.get<std::uint64_t>();
    m.bytes_sent = r.get<std::uint64_t>();
    m.bytes_received = r.get<std::uint64_t>();
    m.fetch_p50_s = r.get<double>();
    m.fetch_p99_s = r.get<double>();
    m.fetch_max_s = r.get<double>();
    m.trace_path = get_name(r, "report trace path");
    return m;
  });
}

}  // namespace dooc::net
