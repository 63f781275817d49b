// Shared XDR encode/decode helpers for NAS protocol messages: file
// attributes, capabilities and remote memory references.
#pragma once

#include "cache/client_cache.h"
#include "crypto/capability.h"
#include "fs/server_fs.h"
#include "mem/address_space.h"
#include "rpc/xdr.h"

namespace ordma::nas {

inline void encode_attr(rpc::XdrEncoder& enc, const fs::Attr& a) {
  enc.u64(a.ino);
  enc.u32(static_cast<std::uint32_t>(a.type));
  enc.u64(a.size);
  enc.i64(a.mtime.ns);
  enc.u32(a.nlink);
}

inline fs::Attr decode_attr(rpc::XdrDecoder& dec) {
  fs::Attr a;
  a.ino = dec.u64();
  a.type = static_cast<fs::FileType>(dec.u32());
  a.size = dec.u64();
  a.mtime = SimTime{dec.i64()};
  a.nlink = dec.u32();
  return a;
}

inline void encode_cap(rpc::XdrEncoder& enc, const crypto::Capability& c) {
  enc.u64(c.segment_id);
  enc.u64(c.base);
  enc.u64(c.length);
  enc.u32(static_cast<std::uint32_t>(c.perm));
  enc.u32(c.generation);
  enc.u64(c.mac);
}

inline crypto::Capability decode_cap(rpc::XdrDecoder& dec) {
  crypto::Capability c;
  c.segment_id = dec.u64();
  c.base = dec.u64();
  c.length = dec.u64();
  c.perm = static_cast<crypto::SegPerm>(dec.u32());
  c.generation = dec.u32();
  c.mac = dec.u64();
  return c;
}

inline void encode_ref(rpc::XdrEncoder& enc, const cache::RemoteRef& r) {
  enc.u64(r.seg_id);
  enc.u64(r.va);
  enc.u64(r.len);
  encode_cap(enc, r.cap);
}

inline cache::RemoteRef decode_ref(rpc::XdrDecoder& dec) {
  cache::RemoteRef r;
  r.seg_id = dec.u64();
  r.va = dec.u64();
  r.len = dec.u64();
  r.cap = decode_cap(dec);
  return r;
}

// End-to-end checksum over read payloads. Servers that deliver data via
// unacknowledged RDMA write (DAFS direct reads, NFS-hybrid) stamp this into
// the control reply; a dropped data frame then shows up as a mismatch when
// the client checksums the landed bytes, instead of as silent corruption.
inline std::uint32_t data_checksum(std::span<const std::byte> data) {
  return rpc::checksum32(data);
}

// The same checksum over `len` bytes where they landed in simulated memory,
// walked in place (mem::checksum) rather than read out first.
inline Result<std::uint32_t> data_checksum(const mem::AddressSpace& as,
                                           mem::Vaddr va, Bytes len) {
  return mem::checksum(as, va, len, rpc::kChecksumSeed);
}

// --- ORDMA write-path messages (kPutCommit / kInvalidate) -------------------

// Commit request for an optimistic put: the client already RDMA-wrote
// `len` bytes at offset `off` into the server cache block (fh, fbn); the
// checksum lets the server verify against the NIC's last-put record that
// exactly those bytes landed (and weren't overtaken by a competing put).
struct PutCommitArgs {
  std::uint64_t fh = 0;
  std::uint64_t fbn = 0;       // server file block number
  std::uint32_t off = 0;       // byte offset within the server block
  std::uint32_t len = 0;
  std::uint32_t cksum = 0;     // data_checksum of the put payload
  std::uint32_t flags = 0;     // kPutFlagWriteback etc.
};

inline void encode_put_commit(rpc::XdrEncoder& enc, const PutCommitArgs& a) {
  enc.u64(a.fh);
  enc.u64(a.fbn);
  enc.u32(a.off);
  enc.u32(a.len);
  enc.u32(a.cksum);
  enc.u32(a.flags);
}

inline PutCommitArgs decode_put_commit(rpc::XdrDecoder& dec) {
  PutCommitArgs a;
  a.fh = dec.u64();
  a.fbn = dec.u64();
  a.off = dec.u32();
  a.len = dec.u32();
  a.cksum = dec.u32();
  a.flags = dec.u32();
  return a;
}

// Server→client invalidation: block (ino, fbn) committed `version`; any
// cached copy tagged with an older version is stale.
struct InvalidateMsg {
  std::uint64_t ino = 0;
  std::uint64_t fbn = 0;       // server file block number
  std::uint64_t version = 0;
};

inline void encode_invalidate(rpc::XdrEncoder& enc, const InvalidateMsg& m) {
  enc.u64(m.ino);
  enc.u64(m.fbn);
  enc.u64(m.version);
}

inline InvalidateMsg decode_invalidate(rpc::XdrDecoder& dec) {
  InvalidateMsg m;
  m.ino = dec.u64();
  m.fbn = dec.u64();
  m.version = dec.u64();
  return m;
}

// Reference record piggybacked on a read reply: (fbn u64, ref), plus the
// block's commit version u64 when `versioned` (coherence mode). The reply
// flags versioned records by setting kVersionedRefsBit in the ref count,
// so plain ODAFS replies keep their exact wire size.
inline constexpr std::uint32_t kVersionedRefsBit = 0x80000000u;

struct RefRecord {
  std::uint64_t fbn = 0;  // server file block number
  cache::RemoteRef ref;
  std::uint64_t version = 0;  // 0 in an unversioned record
};

inline void encode_ref_record(rpc::XdrEncoder& enc, const RefRecord& r,
                              bool versioned) {
  enc.u64(r.fbn);
  encode_ref(enc, r.ref);
  if (versioned) enc.u64(r.version);
}

inline RefRecord decode_ref_record(rpc::XdrDecoder& dec, bool versioned) {
  RefRecord r;
  r.fbn = dec.u64();
  r.ref = decode_ref(dec);
  if (versioned) r.version = dec.u64();
  return r;
}

}  // namespace ordma::nas
