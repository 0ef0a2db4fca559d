#include "net/block_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

namespace dooc::net {

namespace {

void write_atomic(const std::string& path, const DataBuffer& bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot write durable block file '" + tmp + "'");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw IoError("short write to durable block file '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    throw IoError("cannot rename durable block file into place: '" + path + "'");
  }
}

}  // namespace

std::string BlockStore::durable_path(const std::string& dir, const std::string& name) {
  std::string safe;
  safe.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-' || c == '.';
    safe.push_back(ok ? c : '_');
  }
  return dir + "/" + safe + ".blk";
}

void BlockStore::put(const std::string& name, DataBuffer bytes, bool durable) {
  if (durable && !durable_dir_.empty()) write_atomic(durable_path(durable_dir_, name), bytes);
  std::lock_guard lock(mutex_);
  auto [it, inserted] = blocks_.insert_or_assign(name, std::move(bytes));
  if (inserted) {
    counters_.blocks_stored += 1;
    counters_.bytes_stored += it->second.size();
  }
}

void BlockStore::put_cached(const std::string& name, DataBuffer bytes) {
  std::lock_guard lock(mutex_);
  cached_.insert_or_assign(name, std::move(bytes));
}

bool BlockStore::get(const std::string& name, DataBuffer& out) const {
  std::lock_guard lock(mutex_);
  if (auto it = blocks_.find(name); it != blocks_.end()) {
    out = it->second;
    return true;
  }
  if (auto it = cached_.find(name); it != cached_.end()) {
    out = it->second;
    return true;
  }
  return false;
}

void BlockStore::erase(const std::string& name) {
  std::lock_guard lock(mutex_);
  blocks_.erase(name);
  cached_.erase(name);
}

DataBuffer BlockStore::load_durable(const std::string& name) const {
  if (durable_dir_.empty()) throw IoError("no durable directory configured");
  const std::string path = durable_path(durable_dir_, name);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw IoError("durable block file missing: '" + path + "'");
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw IoError("cannot stat durable block file '" + path + "'");
  }
  // Single copy: pread lands directly in a pooled aligned buffer (the old
  // ifstream read staged every byte through the stream's internal buffer
  // first).
  const auto size = static_cast<std::size_t>(st.st_size);
  DataBuffer buf = pool_.acquire(size);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::pread(fd, buf.data() + got, size - got, static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw IoError("read error on durable block file '" + path + "'");
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (got != size) throw IoError("short read from durable block file '" + path + "'");
  return buf;
}

BlockStore::Counters BlockStore::counters() const {
  std::lock_guard lock(mutex_);
  Counters c = counters_;
  for (const auto* map : {&blocks_, &cached_}) {
    for (const auto& [name, bytes] : *map) {
      c.blocks_resident += 1;
      c.bytes_resident += bytes.size();
    }
  }
  return c;
}

}  // namespace dooc::net
