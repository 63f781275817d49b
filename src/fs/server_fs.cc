#include "fs/server_fs.h"

#include <algorithm>

namespace ordma::fs {

ServerFs::ServerFs(host::Host& host, ServerFsConfig cfg)
    : host_(host),
      cfg_(cfg),
      disk_(host, cfg.disk_capacity, cfg.block_size),
      cache_(host, disk_, cfg.cache_blocks, cfg.block_size) {
  attr_region_ = host_.map_new(host_.kernel_as(), attr_region_len());
  auto root = std::make_unique<Inode>();
  root->attr.ino = kRootIno;
  root->attr.type = FileType::directory;
  inodes_.emplace(kRootIno, std::move(root));
  sync_attr(kRootIno);
}

// --- attribute store ---------------------------------------------------------

namespace {
void put_be(std::span<std::byte> out, std::size_t off, std::uint64_t v,
            int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[off + i] =
        static_cast<std::byte>((v >> (8 * (bytes - 1 - i))) & 0xff);
  }
}
std::uint64_t get_be(std::span<const std::byte> in, std::size_t off,
                     int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v = (v << 8) | std::to_integer<std::uint64_t>(in[off + i]);
  }
  return v;
}
constexpr std::uint32_t kAttrMagic = 0xA77Au;
}  // namespace

void ServerFs::encode_attr_record(const Attr& a, std::span<std::byte> out) {
  ORDMA_CHECK(out.size() >= kAttrRecordSize);
  std::fill(out.begin(), out.begin() + kAttrRecordSize, std::byte{0});
  put_be(out, 0, kAttrMagic, 4);
  put_be(out, 4, a.ino, 8);
  put_be(out, 12, static_cast<std::uint64_t>(a.type), 4);
  put_be(out, 16, a.size, 8);
  put_be(out, 24, static_cast<std::uint64_t>(a.mtime.ns), 8);
  put_be(out, 32, a.nlink, 4);
}

Result<Attr> ServerFs::decode_attr_record(std::span<const std::byte> rec,
                                          Ino expect_ino) {
  if (rec.size() < kAttrRecordSize) return Errc::invalid_argument;
  if (get_be(rec, 0, 4) != kAttrMagic) return Errc::stale;
  Attr a;
  a.ino = get_be(rec, 4, 8);
  if (a.ino != expect_ino) return Errc::stale;  // slot was reused
  a.type = static_cast<FileType>(get_be(rec, 12, 4));
  a.size = get_be(rec, 16, 8);
  a.mtime = SimTime{static_cast<std::int64_t>(get_be(rec, 24, 8))};
  a.nlink = static_cast<std::uint32_t>(get_be(rec, 32, 4));
  return a;
}

Result<Bytes> ServerFs::attr_offset(Ino ino) const {
  auto it = attr_slot_.find(ino);
  if (it == attr_slot_.end()) return Errc::not_found;
  return static_cast<Bytes>(it->second) * kAttrRecordSize;
}

void ServerFs::sync_attr(Ino ino) {
  const Inode* node = inode(ino);
  ORDMA_CHECK(node != nullptr);
  auto it = attr_slot_.find(ino);
  std::size_t slot;
  if (it != attr_slot_.end()) {
    slot = it->second;
  } else if (!free_attr_slots_.empty()) {
    slot = free_attr_slots_.back();
    free_attr_slots_.pop_back();
    attr_slot_.emplace(ino, slot);
  } else if (next_attr_slot_ < attr_slots_) {
    slot = next_attr_slot_++;
    attr_slot_.emplace(ino, slot);
  } else {
    return;  // region full: this inode simply has no exported record
  }
  std::byte rec[kAttrRecordSize];
  encode_attr_record(node->attr, rec);
  ORDMA_CHECK(host_.kernel_as()
                  .write(attr_region_ + slot * kAttrRecordSize, rec)
                  .ok());
}

void ServerFs::release_attr_slot(Ino ino) {
  auto it = attr_slot_.find(ino);
  if (it == attr_slot_.end()) return;
  // Zero the record so stale readers see neither the magic nor the ino.
  const std::byte zeros[kAttrRecordSize] = {};
  ORDMA_CHECK(host_.kernel_as()
                  .write(attr_region_ + it->second * kAttrRecordSize, zeros)
                  .ok());
  free_attr_slots_.push_back(it->second);
  attr_slot_.erase(it);
}

ServerFs::Inode* ServerFs::inode(Ino ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : it->second.get();
}
const ServerFs::Inode* ServerFs::inode(Ino ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : it->second.get();
}

Result<BlockNo> ServerFs::alloc_block() {
  if (!free_blocks_.empty()) {
    const BlockNo b = free_blocks_.back();
    free_blocks_.pop_back();
    return b;
  }
  if (next_fresh_block_ < disk_.num_blocks()) return next_fresh_block_++;
  return Errc::no_space;
}

Result<Ino> ServerFs::create(Ino parent, const std::string& name,
                             FileType type) {
  Inode* dir = inode(parent);
  if (!dir || dir->attr.type != FileType::directory) return Errc::not_found;
  if (name.empty() || name.find('/') != std::string::npos) {
    return Errc::invalid_argument;
  }
  if (dir->dirents.count(name)) return Errc::already_exists;

  const Ino ino = next_ino_++;
  auto node = std::make_unique<Inode>();
  node->attr.ino = ino;
  node->attr.type = type;
  node->attr.mtime = host_.engine().now();
  inodes_.emplace(ino, std::move(node));
  dir->dirents.emplace(name, ino);
  dir->attr.mtime = host_.engine().now();
  sync_attr(ino);
  sync_attr(parent);
  return ino;
}

Result<Ino> ServerFs::lookup(Ino parent, const std::string& name) const {
  const Inode* dir = inode(parent);
  if (!dir || dir->attr.type != FileType::directory) return Errc::not_found;
  auto it = dir->dirents.find(name);
  if (it == dir->dirents.end()) return Errc::not_found;
  return it->second;
}

Result<Ino> ServerFs::resolve(const std::string& path) const {
  Ino cur = kRootIno;
  std::size_t start = 0;
  while (start < path.size()) {
    const auto slash = path.find('/', start);
    const auto end = slash == std::string::npos ? path.size() : slash;
    if (end > start) {
      auto next = lookup(cur, path.substr(start, end - start));
      if (!next.ok()) return next;
      cur = next.value();
    }
    start = end + 1;
  }
  return cur;
}

Status ServerFs::remove(Ino parent, const std::string& name) {
  Inode* dir = inode(parent);
  if (!dir || dir->attr.type != FileType::directory) {
    return Status(Errc::not_found);
  }
  auto it = dir->dirents.find(name);
  if (it == dir->dirents.end()) return Status(Errc::not_found);
  Inode* node = inode(it->second);
  ORDMA_CHECK(node != nullptr);
  if (node->attr.type == FileType::directory && !node->dirents.empty()) {
    return Status(Errc::invalid_argument);  // non-empty directory
  }
  // Drop cache blocks (fires evict hooks → ODAFS revocation) and free disk.
  for (std::uint64_t fbn = 0; fbn < node->blocks.size(); ++fbn) {
    cache_.invalidate(CacheKey{node->attr.ino, fbn});
    free_blocks_.push_back(node->blocks[fbn]);
  }
  release_attr_slot(node->attr.ino);
  inodes_.erase(node->attr.ino);
  dir->dirents.erase(it);
  dir->attr.mtime = host_.engine().now();
  sync_attr(dir->attr.ino);
  return Status::Ok();
}

Result<std::vector<std::string>> ServerFs::readdir(Ino ino) const {
  const Inode* dir = inode(ino);
  if (!dir || dir->attr.type != FileType::directory) return Errc::not_found;
  std::vector<std::string> names;
  names.reserve(dir->dirents.size());
  for (const auto& [name, child] : dir->dirents) names.push_back(name);
  return names;
}

Result<Attr> ServerFs::getattr(Ino ino) const {
  const Inode* node = inode(ino);
  if (!node) return Errc::stale;
  return node->attr;
}

sim::Task<Result<CacheBlock*>> ServerFs::get_cache_block(Ino ino,
                                                         std::uint64_t fbn,
                                                         bool for_write,
                                                         obs::OpId trace_op) {
  Inode* node = inode(ino);
  if (!node) co_return Errc::stale;
  const bool fresh = fbn >= node->blocks.size();
  if (fresh) {
    if (!for_write) co_return Errc::invalid_argument;  // read past blocks
    while (node->blocks.size() <= fbn) {
      auto b = alloc_block();
      if (!b.ok()) co_return b.status();
      node->blocks.push_back(b.value());
    }
  }
  co_return co_await cache_.get(CacheKey{ino, fbn}, node->blocks[fbn],
                                /*zero_fill=*/fresh, trace_op);
}

sim::Task<Result<Bytes>> ServerFs::read(Ino ino, Bytes off,
                                        std::span<std::byte> out,
                                        obs::OpId trace_op) {
  Inode* node = inode(ino);
  if (!node) co_return Errc::stale;
  if (off >= node->attr.size) co_return Bytes{0};
  const Bytes len = std::min<Bytes>(out.size(), node->attr.size - off);

  Bytes done = 0;
  while (done < len) {
    const Bytes pos = off + done;
    const std::uint64_t fbn = pos / cfg_.block_size;
    const Bytes boff = pos % cfg_.block_size;
    const Bytes chunk = std::min<Bytes>(len - done, cfg_.block_size - boff);
    auto blk = co_await get_cache_block(ino, fbn, /*for_write=*/false,
                                        trace_op);
    if (!blk.ok()) co_return blk.status();
    CacheBlock* b = blk.value();
    BufferCache::pin(*b);
    ORDMA_CHECK(host_.kernel_as()
                    .read(b->va + boff, out.subspan(done, chunk))
                    .ok());
    BufferCache::unpin(*b);
    done += chunk;
  }
  co_return done;
}

sim::Task<Result<Bytes>> ServerFs::write(Ino ino, Bytes off,
                                         std::span<const std::byte> data,
                                         obs::OpId trace_op) {
  Inode* node = inode(ino);
  if (!node) co_return Errc::stale;
  if (node->attr.type != FileType::regular) co_return Errc::invalid_argument;

  Bytes done = 0;
  while (done < data.size()) {
    const Bytes pos = off + done;
    const std::uint64_t fbn = pos / cfg_.block_size;
    const Bytes boff = pos % cfg_.block_size;
    const Bytes chunk =
        std::min<Bytes>(data.size() - done, cfg_.block_size - boff);
    auto blk = co_await get_cache_block(ino, fbn, /*for_write=*/true,
                                        trace_op);
    if (!blk.ok()) co_return blk.status();
    CacheBlock* b = blk.value();
    BufferCache::pin(*b);
    ORDMA_CHECK(host_.kernel_as()
                    .write(b->va + boff, data.subspan(done, chunk))
                    .ok());
    cache_.mark_dirty(*b);
    BufferCache::unpin(*b);
    done += chunk;
  }
  node->attr.size = std::max<Bytes>(node->attr.size, off + data.size());
  node->attr.mtime = host_.engine().now();
  sync_attr(ino);
  co_return done;
}

Status ServerFs::note_put_commit(Ino ino, std::uint64_t fbn,
                                 Bytes valid_end) {
  Inode* node = inode(ino);
  if (!node) return Status(Errc::stale);
  if (node->attr.type != FileType::regular) {
    return Status(Errc::invalid_argument);
  }
  if (fbn >= node->blocks.size() || valid_end > cfg_.block_size) {
    return Status(Errc::invalid_argument);  // puts only hit resident blocks
  }
  node->attr.size = std::max<Bytes>(node->attr.size,
                                    fbn * cfg_.block_size + valid_end);
  node->attr.mtime = host_.engine().now();
  sync_attr(ino);
  return Status::Ok();
}

sim::Task<Status> ServerFs::truncate(Ino ino, Bytes new_size) {
  Inode* node = inode(ino);
  if (!node) co_return Status(Errc::stale);
  const auto keep_blocks =
      (new_size + cfg_.block_size - 1) / cfg_.block_size;
  while (node->blocks.size() > keep_blocks) {
    const std::uint64_t fbn = node->blocks.size() - 1;
    cache_.invalidate(CacheKey{ino, fbn});
    free_blocks_.push_back(node->blocks.back());
    node->blocks.pop_back();
  }
  node->attr.size = new_size;
  node->attr.mtime = host_.engine().now();
  sync_attr(ino);
  co_return Status::Ok();
}

sim::Task<Status> ServerFs::warm(Ino ino) {
  Inode* node = inode(ino);
  if (!node) co_return Status(Errc::stale);
  for (std::uint64_t fbn = 0; fbn < node->blocks.size(); ++fbn) {
    auto blk = co_await get_cache_block(ino, fbn, /*for_write=*/false);
    if (!blk.ok()) co_return blk.status();
  }
  co_return Status::Ok();
}

}  // namespace ordma::fs
