// The server-local file system the NAS protocols export: inodes with block
// lists, a bitmap block allocator, hierarchical directories, and all data
// I/O staged through the buffer cache. Metadata structures are kept in
// memory (the paper's experiments never run metadata cold); data blocks live
// on the simulated disk and move through real cache memory, which is what
// the protocols export, DMA and ORDMA against.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "fs/buffer_cache.h"
#include "fs/disk.h"
#include "host/host.h"
#include "sim/task.h"

namespace ordma::fs {

enum class FileType : std::uint8_t { regular, directory };

struct Attr {
  Ino ino = 0;
  FileType type = FileType::regular;
  Bytes size = 0;
  SimTime mtime{};
  std::uint32_t nlink = 1;
};

struct ServerFsConfig {
  Bytes disk_capacity = GiB(4);
  Bytes block_size = KiB(8);
  std::size_t cache_blocks = 4096;  // 32 MB at 8 KB blocks
};

class ServerFs {
 public:
  static constexpr Ino kRootIno = 1;

  ServerFs(host::Host& host, ServerFsConfig cfg = {});
  ServerFs(const ServerFs&) = delete;
  ServerFs& operator=(const ServerFs&) = delete;

  Bytes block_size() const { return cfg_.block_size; }
  BufferCache& cache() { return cache_; }
  Disk& disk() { return disk_; }

  // --- namespace -----------------------------------------------------------
  Result<Ino> create(Ino parent, const std::string& name, FileType type);
  Result<Ino> lookup(Ino parent, const std::string& name) const;
  // Walk a '/'-separated path from the root (empty components skipped),
  // one lookup per component; a missing component is not_found.
  Result<Ino> resolve(const std::string& path) const;
  // Unlink: frees blocks and invalidates cache entries (fires evict hooks).
  Status remove(Ino parent, const std::string& name);
  Result<std::vector<std::string>> readdir(Ino dir) const;

  Result<Attr> getattr(Ino ino) const;

  // --- data ------------------------------------------------------------------
  // `trace_op` charges miss-path disk I/O to a file op (obs/trace.h).
  // Read up to len bytes at off into out; returns bytes read (short at EOF).
  sim::Task<Result<Bytes>> read(Ino ino, Bytes off, std::span<std::byte> out,
                                obs::OpId trace_op = 0);
  // Write (extends the file as needed).
  sim::Task<Result<Bytes>> write(Ino ino, Bytes off,
                                 std::span<const std::byte> data,
                                 obs::OpId trace_op = 0);
  sim::Task<Status> truncate(Ino ino, Bytes new_size);

  // Fault a file's blocks into the cache (warm-cache experiment setup).
  sim::Task<Status> warm(Ino ino);

  // Resolve (ino, file block) → cache block, loading from disk if needed.
  // Exposed for the DAFS server, which exports cache blocks directly.
  sim::Task<Result<CacheBlock*>> get_cache_block(Ino ino, std::uint64_t fbn,
                                                 bool for_write,
                                                 obs::OpId trace_op = 0);

  // An ORDMA put landed directly in a resident cache block (DAFS
  // kPutCommit): fold in the metadata effects of a write — size extension
  // within the block and mtime — without touching the data path.
  Status note_put_commit(Ino ino, std::uint64_t fbn, Bytes valid_end);

  // --- attribute store -------------------------------------------------------
  // Marshalled per-inode attribute records in kernel memory, kept in sync
  // with every metadata mutation, so a NIC can serve getattr by remote
  // memory read (the ODAFS attribute extension of §4.2.2). Records embed
  // the inode number; a reader of a reused slot detects the mismatch and
  // falls back to RPC.
  static constexpr Bytes kAttrRecordSize = 64;
  mem::Vaddr attr_region() const { return attr_region_; }
  Bytes attr_region_len() const {
    return static_cast<Bytes>(attr_slots_) * kAttrRecordSize;
  }
  // Byte offset of this inode's record within the region.
  Result<Bytes> attr_offset(Ino ino) const;

  static void encode_attr_record(const Attr& a,
                                 std::span<std::byte> out /* 64 bytes */);
  // Fails (stale) if the record's embedded ino differs from `expect_ino`.
  static Result<Attr> decode_attr_record(std::span<const std::byte> rec,
                                         Ino expect_ino);

 private:
  struct Inode {
    Attr attr;
    std::vector<BlockNo> blocks;                 // file block → disk block
    std::map<std::string, Ino> dirents;          // directories only
  };

  Inode* inode(Ino ino);
  const Inode* inode(Ino ino) const;
  Result<BlockNo> alloc_block();
  void sync_attr(Ino ino);
  void release_attr_slot(Ino ino);

  host::Host& host_;
  ServerFsConfig cfg_;
  Disk disk_;
  BufferCache cache_;
  std::map<Ino, std::unique_ptr<Inode>> inodes_;
  Ino next_ino_ = kRootIno + 1;
  std::vector<BlockNo> free_blocks_;
  BlockNo next_fresh_block_ = 0;

  mem::Vaddr attr_region_ = 0;
  std::size_t attr_slots_ = 8192;
  std::map<Ino, std::size_t> attr_slot_;
  std::vector<std::size_t> free_attr_slots_;
  std::size_t next_attr_slot_ = 0;
};

}  // namespace ordma::fs
