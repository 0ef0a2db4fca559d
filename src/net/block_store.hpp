// Per-node block storage for doocd: an in-memory name -> DataBuffer map
// with durable write-through. Every block stored with `durable = true` is
// persisted (atomic tmp + rename) into a directory shared by the cluster
// *before* the node acknowledges it — which is what makes failover cheap:
// when a node dies, everything it ever acknowledged is re-readable from
// the durable directory by any survivor, so the coordinator only has to
// re-run the tasks that were in flight.
//
// Codec interop: the in-memory map always holds RAW payloads (executors
// bind kernels straight to them), while the durable file keeps the codec
// frame when one exists — arriving compressed from a peer, or encoded
// here when this node's codec is on. Decoding of incoming frames always
// works regardless of the local mode, so mixed-configuration clusters
// (compressed daemons, raw coordinator, or vice versa) interoperate.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "spmv/codec.hpp"
#include "storage/buffer_pool.hpp"

namespace dooc::net {

class BlockStore {
 public:
  /// `durable_dir` empty disables write-through (memory-only store).
  explicit BlockStore(std::string durable_dir) : durable_dir_(std::move(durable_dir)) {}

  /// Codec policy for the durable write path (mode=on/adaptive encodes
  /// matrix payloads before they hit disk). Decode of incoming frames is
  /// unconditional.
  void set_codec(spmv::codec::CodecConfig cfg) noexcept { codec_ = cfg; }
  [[nodiscard]] const spmv::codec::CodecConfig& codec() const noexcept { return codec_; }

  struct Counters {
    std::uint64_t blocks_stored = 0;
    std::uint64_t bytes_stored = 0;
    std::uint64_t durable_writes = 0;
    std::uint64_t durable_bytes = 0;
  };

  /// Store (write-once: re-putting the same name replaces, which only
  /// happens on task retry with bitwise-identical bytes). With `durable`
  /// and a configured dir, the block is on disk before put() returns.
  void put(const std::string& name, DataBuffer bytes, bool durable);

  /// Cache a remotely-fetched block without counting it as stored here
  /// (it already has a home; no durable write either). These cached copies
  /// are what make every reader a replica holder: the FetchReq handler
  /// serves them to other nodes exactly like home blocks.
  void put_cached(const std::string& name, DataBuffer bytes);

  /// `cached`, when non-null, reports whether the hit came from the
  /// replica cache rather than a home block.
  [[nodiscard]] bool get(const std::string& name, DataBuffer& out,
                         bool* cached = nullptr) const;
  [[nodiscard]] bool contains(const std::string& name) const;

  /// Read a block's durable file (any node's — the dir is shared) with a
  /// single copy: pread straight into a pooled aligned buffer. The result
  /// may be a codec frame; callers decode (see spmv::codec::decode_if_encoded).
  /// Throws IoError when the file does not exist or is unreadable.
  [[nodiscard]] DataBuffer load_durable(const std::string& name) const;
  [[nodiscard]] bool durable_exists(const std::string& name) const;

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] const std::string& durable_dir() const noexcept { return durable_dir_; }

  /// Where `name` lives in `dir` (block names are sanitized into safe
  /// file names deterministically, so every process agrees on the path).
  [[nodiscard]] static std::string durable_path(const std::string& dir, const std::string& name);

 private:
  std::string durable_dir_;
  spmv::codec::CodecConfig codec_;
  /// Reusable aligned buffers for durable reads (the old ifstream path
  /// staged every byte through the stream's internal buffer first — the
  /// same double copy the storage layer's IoWorkerPool eliminated).
  mutable storage::BufferPool pool_;
  mutable std::mutex mutex_;
  std::map<std::string, DataBuffer> blocks_;
  std::map<std::string, DataBuffer> cached_;
  Counters counters_;
};

}  // namespace dooc::net
