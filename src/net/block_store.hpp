// Per-node block storage for doocd: an in-memory name -> DataBuffer map of
// the blocks this node homes. A block leaves it when the coordinator
// releases it (erase()): no task of the graph reads it again. Deployed
// blocks are also persisted (atomic tmp + rename) into a directory the
// cluster shares, so survivors re-read a dead node's deployed blocks there
// and keep that copy (put_cached()). Task outputs stay in memory on their
// home only: the coordinator re-derives a lost or released output from its
// lineage.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "storage/buffer_pool.hpp"

namespace dooc::net {

class BlockStore {
 public:
  /// `durable_dir` empty keeps every block in memory only.
  explicit BlockStore(std::string durable_dir) : durable_dir_(std::move(durable_dir)) {}

  struct Counters {
    std::uint64_t blocks_stored = 0;  ///< ever stored here (home blocks)
    std::uint64_t bytes_stored = 0;
    std::uint64_t blocks_resident = 0;  ///< held now, home blocks and cached copies
    std::uint64_t bytes_resident = 0;
  };

  /// Store (write-once: re-putting the same name replaces, which only
  /// happens on a task re-run with bitwise-identical bytes). With
  /// `durable` and a configured dir, the block is on disk before put()
  /// returns.
  void put(const std::string& name, DataBuffer bytes, bool durable);

  /// Keep a dead node's deployed block, read from its durable file, without
  /// counting it as stored here, so later tasks on this node that read it
  /// skip the disk.
  void put_cached(const std::string& name, DataBuffer bytes);

  /// A home block, else a cached copy.
  [[nodiscard]] bool get(const std::string& name, DataBuffer& out) const;

  /// Drop `name` (home block or cached copy). Readers that already hold
  /// its DataBuffer keep the bytes alive until they let go.
  void erase(const std::string& name);

  /// Read a block's durable file (any node's — the dir is shared) with a
  /// single copy: pread straight into a pooled aligned buffer.
  /// Throws IoError when the file does not exist or is unreadable.
  [[nodiscard]] DataBuffer load_durable(const std::string& name) const;

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] const std::string& durable_dir() const noexcept { return durable_dir_; }

  /// Where `name` lives in `dir` (block names are sanitized into safe
  /// file names deterministically, so every process agrees on the path).
  [[nodiscard]] static std::string durable_path(const std::string& dir, const std::string& name);

 private:
  std::string durable_dir_;
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
