#include "workload/streaming.h"

#include <algorithm>
#include <memory>

namespace ordma::wl {

namespace {

struct SharedState {
  explicit SharedState(sim::Engine& eng) : done(eng) {}
  Bytes next_off = 0;
  Bytes end = 0;
  Bytes block = 0;
  Bytes bytes_read = 0;
  unsigned live_workers = 0;
  bool failed = false;
  sim::Event<> done;
};

// One read-ahead worker: repeatedly claims the next block offset and reads
// it into its private buffer. `window` workers together form the
// application's read-ahead window.
sim::Task<void> worker(core::FileClient& client, std::uint64_t fh,
                       mem::Vaddr buf, std::shared_ptr<SharedState> st) {
  while (!st->failed && st->next_off < st->end) {
    const Bytes off = st->next_off;
    const Bytes chunk = std::min<Bytes>(st->block, st->end - off);
    st->next_off += chunk;
    auto n = co_await client.pread(fh, off, buf, chunk);
    if (!n.ok()) {
      st->failed = true;
      break;
    }
    st->bytes_read += n.value();
    if (n.value() < chunk) break;  // EOF
  }
  if (--st->live_workers == 0) st->done.set();
}

}  // namespace

sim::Task<Result<StreamResult>> stream_read(host::Host& host,
                                            core::FileClient& client,
                                            const std::string& path,
                                            StreamConfig cfg) {
  auto open = co_await client.open(path);
  if (!open.ok()) co_return open.status();
  const Bytes end =
      cfg.limit == 0 ? open.value().size
                     : std::min<Bytes>(cfg.limit, open.value().size);

  // Per-worker buffers, allocated once so registration caching works.
  std::vector<mem::Vaddr> bufs;
  for (unsigned w = 0; w < cfg.window; ++w) {
    bufs.push_back(host.map_new(host.user_as(), cfg.block));
  }

  StreamResult out;
  for (unsigned pass = 0; pass < cfg.passes; ++pass) {
    const bool measured =
        !cfg.measure_last_pass_only || pass + 1 == cfg.passes;
    const auto cpu0 = host.sample_cpu();
    const SimTime t0 = host.engine().now();

    auto st = std::make_shared<SharedState>(host.engine());
    st->end = end;
    st->block = cfg.block;
    st->live_workers = cfg.window;
    for (unsigned w = 0; w < cfg.window; ++w) {
      host.engine().spawn(worker(client, open.value().fh, bufs[w], st));
    }
    co_await st->done.wait();
    if (st->failed) co_return Errc::io_error;

    if (measured) {
      out.bytes += st->bytes_read;
      out.elapsed += host.engine().now() - t0;
      const auto cpu1 = host.sample_cpu();
      out.client_cpu_util = host::Host::utilisation(cpu0, cpu1);
    }
  }
  out.throughput_MBps = throughput_MBps(out.bytes, out.elapsed);
  co_return out;
}

}  // namespace ordma::wl
