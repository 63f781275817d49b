#include "nas/nfs/nfs_client.h"

#include <algorithm>

#include "nas/wire_util.h"
#include "obs/sampler.h"
#include "recover/recover.h"

namespace ordma::nas::nfs {

namespace {
// Split "a/b/c" into components.
std::vector<std::string> components(const std::string& path) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < path.size()) {
    const auto slash = path.find('/', start);
    const auto end = slash == std::string::npos ? path.size() : slash;
    if (end > start) out.push_back(path.substr(start, end - start));
    start = end + 1;
  }
  return out;
}
}  // namespace

NfsClientBase::NfsClientBase(host::Host& host, msg::UdpStack& stack,
                             net::NodeId server, std::uint16_t local_port,
                             Bytes transfer_size, rpc::RpcRetryPolicy retry)
    : FileClient(host),
      rpc_(host, stack, local_port, retry),
      server_(server),
      transfer_size_(transfer_size) {}

sim::Task<Result<rpc::RpcReplyInfo>> NfsClientBase::call(
    std::uint32_t proc, rpc::XdrEncoder args, obs::OpId op,
    const rpc::Prepost* prepost) {
  auto res = co_await rpc_.call(server_, kNfsPort, proc, args.finish(),
                                prepost, op);
  if (res.ok() && res.value().status != 0) {
    co_return static_cast<Errc>(res.value().status);
  }
  co_return res;
}

sim::Task<Result<fs::Attr>> NfsClientBase::lookup(fs::Ino dir,
                                                  const std::string& name) {
  rpc::XdrEncoder args;
  args.u64(dir);
  args.str(name);
  auto res = co_await call(kLookup, std::move(args));
  if (!res.ok()) co_return res.status();
  rpc::XdrDecoder dec(res.value().results);
  co_return decode_attr(dec);
}

sim::Task<Result<fs::Attr>> NfsClientBase::resolve(const std::string& path) {
  fs::Attr cur;
  cur.ino = fs::ServerFs::kRootIno;
  cur.type = fs::FileType::directory;
  for (const auto& name : components(path)) {
    auto attr = co_await lookup(cur.ino, name);
    if (!attr.ok()) co_return attr.status();
    cur = attr.value();
  }
  co_return cur;
}

sim::Task<Result<std::pair<fs::Ino, std::string>>>
NfsClientBase::resolve_parent(const std::string& path) {
  auto parts = components(path);
  if (parts.empty()) co_return Errc::invalid_argument;
  const std::string leaf = parts.back();
  parts.pop_back();
  fs::Ino dir = fs::ServerFs::kRootIno;
  for (const auto& name : parts) {
    auto attr = co_await lookup(dir, name);
    if (!attr.ok()) co_return attr.status();
    dir = attr.value().ino;
  }
  co_return std::make_pair(dir, leaf);
}

sim::Task<Result<core::OpenResult>> NfsClientBase::open(
    const std::string& path) {
  co_await host_.cpu_consume(host_.costs().cpu_syscall);
  auto attr = co_await resolve(path);
  if (!attr.ok()) co_return attr.status();
  co_return core::OpenResult{attr.value().ino, attr.value().size};
}

sim::Task<Status> NfsClientBase::close(std::uint64_t) {
  // NFS is stateless: close is purely local.
  co_await host_.cpu_consume(host_.costs().cpu_syscall);
  co_return Status::Ok();
}

sim::Task<Result<Bytes>> NfsClientBase::pread_op(std::uint64_t fh, Bytes off,
                                                 mem::Vaddr user_va,
                                                 Bytes len, obs::OpId op) {
  co_await host_.cpu_consume(host_.costs().cpu_syscall, op, "io/syscall");
  Bytes done = 0;
  while (done < len) {
    const Bytes chunk = std::min<Bytes>(len - done, transfer_size_);
    auto n = co_await read_chunk(fh, off + done, user_va + done, chunk, op);
    if (!n.ok()) co_return n.status();
    done += n.value();
    if (n.value() < chunk) break;  // EOF
  }
  co_return done;
}

sim::Task<Result<Bytes>> NfsClientBase::pwrite_op(std::uint64_t fh,
                                                  Bytes off,
                                                  mem::Vaddr user_va,
                                                  Bytes len, obs::OpId op) {
  co_await host_.cpu_consume(host_.costs().cpu_syscall, op, "io/syscall");
  Bytes done = 0;
  while (done < len) {
    const Bytes chunk = std::min<Bytes>(len - done, transfer_size_);
    std::vector<std::byte> data(chunk);
    if (!host_.user_as().read(user_va + done, data).ok()) {
      co_return Errc::access_fault;
    }
    co_await host_.cpu_consume(host_.costs().nfs_client_proc, op,
                               "io/nfs_client_proc");
    rpc::XdrEncoder args;
    args.u64(fh);
    args.u64(off + done);
    args.opaque(data);
    auto res = co_await call(kWrite, std::move(args), op);
    if (!res.ok()) co_return res.status();
    rpc::XdrDecoder dec(res.value().results);
    done += dec.u32();
  }
  co_return done;
}

sim::Task<Result<fs::Attr>> NfsClientBase::getattr_op(std::uint64_t fh,
                                                      obs::OpId op) {
  co_await host_.cpu_consume(host_.costs().cpu_syscall, op, "io/syscall");
  rpc::XdrEncoder args;
  args.u64(fh);
  auto res = co_await call(kGetattr, std::move(args), op);
  if (!res.ok()) co_return res.status();
  rpc::XdrDecoder dec(res.value().results);
  co_return decode_attr(dec);
}

sim::Task<Result<core::OpenResult>> NfsClientBase::create(
    const std::string& path) {
  co_await host_.cpu_consume(host_.costs().cpu_syscall);
  auto parent = co_await resolve_parent(path);
  if (!parent.ok()) co_return parent.status();
  rpc::XdrEncoder args;
  args.u64(parent.value().first);
  args.str(parent.value().second);
  args.u32(static_cast<std::uint32_t>(fs::FileType::regular));
  auto res = co_await call(kCreate, std::move(args));
  if (!res.ok()) co_return res.status();
  rpc::XdrDecoder dec(res.value().results);
  const auto attr = decode_attr(dec);
  co_return core::OpenResult{attr.ino, attr.size};
}

sim::Task<Status> NfsClientBase::unlink(const std::string& path) {
  co_await host_.cpu_consume(host_.costs().cpu_syscall);
  auto parent = co_await resolve_parent(path);
  if (!parent.ok()) co_return parent.status();
  rpc::XdrEncoder args;
  args.u64(parent.value().first);
  args.str(parent.value().second);
  co_return (co_await call(kRemove, std::move(args))).status();
}

// ---------------------------------------------------------------------------
// Standard NFS: in-line data, two staging copies on the client.
// ---------------------------------------------------------------------------

sim::Task<Result<Bytes>> NfsClient::read_chunk(std::uint64_t ino, Bytes off,
                                               mem::Vaddr user_va, Bytes len,
                                               obs::OpId op) {
  const auto& cm = host_.costs();
  rpc::XdrEncoder args;
  args.u64(ino);
  args.u64(off);
  args.u32(static_cast<std::uint32_t>(len));
  auto res = co_await call(kRead, std::move(args), op);
  if (!res.ok()) co_return res.status();

  rpc::XdrDecoder dec(res.value().results);
  const Bytes n = dec.u32();
  const auto data = dec.rest();
  if (data.size() < n) co_return Errc::io_error;

  // Stage 1: socket buffers (mbuf chain) → client buffer cache.
  co_await host_.cpu_consume(cm.nfs_stage_bw.time_for(n) + cm.copy_fixed, op,
                             "byte/nfs_stage");
  co_await host_.cpu_consume(cm.nfs_client_proc, op, "io/nfs_client_proc");
  // Stage 2: buffer cache → user buffer.
  co_await host_.copy(n, op);
  if (!host_.user_as().write(user_va, data.subspan(0, n)).ok()) {
    co_return Errc::access_fault;
  }
  co_return n;
}

// ---------------------------------------------------------------------------
// NFS pre-posting: per-I/O pin + pre-post; NIC places payload directly.
// ---------------------------------------------------------------------------

sim::Task<Result<Bytes>> NfsPrepostClient::read_chunk(std::uint64_t ino,
                                                      Bytes off,
                                                      mem::Vaddr user_va,
                                                      Bytes len,
                                                      obs::OpId op) {
  const auto& cm = host_.costs();
  // On-the-fly registration: pin the user buffer for the DMA (§3).
  co_await host_.cpu_consume(cm.memory_register, op, "io/register");

  rpc::XdrEncoder args;
  args.u64(ino);
  args.u64(off);
  args.u32(static_cast<std::uint32_t>(len));
  rpc::Prepost pp{&host_.user_as(), user_va, len};
  auto res = co_await call(kRead, std::move(args), op, &pp);
  co_await host_.cpu_consume(cm.memory_deregister, op, "io/register");
  if (!res.ok()) co_return res.status();

  rpc::XdrDecoder dec(res.value().results);
  const Bytes n = dec.u32();
  co_await host_.cpu_consume(cm.nfs_client_proc, op, "io/nfs_client_proc");
  if (!res.value().rddp_placed && n > 0) {
    // The NIC did not match the pre-post (e.g. cancelled); fall back to the
    // in-line path so data is never lost.
    const auto data = dec.rest();
    if (data.size() < n) co_return Errc::io_error;
    co_await host_.copy(n, op);
    if (!host_.user_as().write(user_va, data.subspan(0, n)).ok()) {
      co_return Errc::access_fault;
    }
  }
  co_return n;
}

// ---------------------------------------------------------------------------
// NFS hybrid: advertise a registered buffer, server RDMA-writes into it.
// ---------------------------------------------------------------------------

sim::Task<Result<Bytes>> NfsHybridClient::read_chunk(std::uint64_t ino,
                                                     Bytes off,
                                                     mem::Vaddr user_va,
                                                     Bytes len,
                                                     obs::OpId op) {
  const auto& cm = host_.costs();
  auto reg = co_await regs_.ensure(user_va, len, op);
  if (!reg.ok()) co_return reg.status();
  const RegistrationCache::Registered& r = *reg.value();
  const mem::Vaddr nic_va = r.nic_va(user_va);

  // The server's RDMA write is unacked: a dropped data frame leaves the RPC
  // reply intact but the user buffer stale. Verify the landed bytes against
  // the reply's checksum; a mismatch is a retryable io_error.
  constexpr unsigned kReadAttempts = 4;
  co_return co_await recover::bounded(
      kReadAttempts, recover::Site{host_, stats_.retries, op},
      [&]() -> sim::Task<Result<Bytes>> {
        rpc::XdrEncoder args;
        args.u64(ino);
        args.u64(off);
        args.u32(static_cast<std::uint32_t>(len));
        args.u64(nic_va);
        encode_cap(args, r.cap);
        auto res = co_await call(kReadHybrid, std::move(args), op);
        if (!res.ok()) co_return res.status();

        co_await host_.cpu_consume(cm.nfs_client_proc, op,
                                   "io/nfs_client_proc");
        rpc::XdrDecoder dec(res.value().results);
        const Bytes n = dec.u32();
        const std::uint32_t want = dec.u32();
        if (!dec.ok()) co_return Errc::io_error;
        const auto landed = data_checksum(host_.user_as(), user_va, n);
        if (!landed.ok()) co_return Errc::access_fault;
        if (landed.value() == want) co_return n;
        ++integrity_retries_;
        co_return Errc::io_error;
      });
}

}  // namespace ordma::nas::nfs
