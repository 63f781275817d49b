// Per-I/O overhead attribution (the Table 1 decomposition applied to this
// simulation): trace a run of preads per protocol, fold every op's span
// tree into the paper's cost categories (obs/attribution.h), and print the
// average breakdown. Because the attributor sweeps each op's root interval
// and charges every instant to exactly one bucket, the six buckets (plus
// "other": queueing/sync gaps and untraced work) sum to the end-to-end
// latency — cross-checked below against the wall-clock average per read,
// which itself is validated against the paper by bench/table3_response_time.
//
// Paper context (Sec. 2, Table 1): overheads divide into per-byte,
// per-packet and per-I/O costs; direct access removes the per-byte copies
// and most per-packet work, which is exactly what the NFS → RDDP-RPC →
// DAFS → ODAFS progression below shows.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "core/file_client.h"
#include "nas/odafs/odafs_client.h"
#include "obs/attribution.h"
#include "obs/cli.h"
#include "obs/explain.h"

namespace ordma {
namespace {

constexpr Bytes kFileSize = MiB(8);
constexpr Bytes kServerBlock = KiB(8);

enum class Proto { nfs, prepost, dafs, odafs };

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::nfs: return "NFS";
    case Proto::prepost: return "RDDP-RPC";
    case Proto::dafs: return "DAFS";
    case Proto::odafs: return "ODAFS";
  }
  return "?";
}

struct RunResult {
  obs::Breakdown avg;   // mean over measured preads
  double e2e_us = 0;    // wall-clock average per pread
  std::size_t ops = 0;  // measured preads folded in
  // Cause-level explanation of the same ops (obs/explain.h), keyed by op.
  std::map<obs::OpId, obs::CauseBreakdown> causes;
};

// Run `samples` preads of `io_size` with `proto` and attribute them. The
// measured pass runs after a warm-up pass over the same range so connection
// setup, registration and (for ODAFS) reference harvesting happen outside
// the trace. If `rec` is non-null the trace is recorded there (and kept for
// the caller, e.g. --trace output); otherwise a run-local recorder is used.
RunResult run_proto(Proto proto, Bytes io_size, int samples,
                    obs::TraceRecorder* rec = nullptr) {
  core::ClusterConfig cc;
  cc.fs.block_size = kServerBlock;
  cc.fs.cache_blocks = kFileSize / kServerBlock + 64;
  core::Cluster c(cc);

  std::unique_ptr<core::FileClient> client;
  nas::odafs::OdafsClient* odafs = nullptr;
  switch (proto) {
    case Proto::nfs:
      c.start_nfs();
      client = c.make_nfs_client(0);
      break;
    case Proto::prepost:
      c.start_nfs();
      client = c.make_prepost_client(0);
      break;
    case Proto::dafs: {
      c.start_dafs();
      nas::dafs::DafsClientConfig cfg;
      cfg.completion = msg::Completion::block;
      client = c.make_dafs_client(0, cfg);
      break;
    }
    case Proto::odafs: {
      c.start_dafs({.piggyback_refs = true});
      nas::odafs::OdafsClientConfig cfg;
      cfg.cache.block_size = kServerBlock;
      // Few data blocks, many headers: re-reads miss the data cache but
      // find harvested references and go ORDMA (the §5.2 setup).
      cfg.cache.data_blocks = 64;
      cfg.cache.max_headers = 2 * kFileSize / kServerBlock;
      cfg.dafs.completion = msg::Completion::block;
      auto oc = c.make_odafs_client(0, cfg);
      odafs = oc.get();
      client = std::move(oc);
      break;
    }
  }

  bench::drive(c, [&c]() -> sim::Task<void> {
    co_await c.make_file("f", kFileSize, /*warm=*/true);
  });

  obs::TraceRecorder local;
  obs::TraceRecorder& recorder = rec ? *rec : local;

  RunResult out;
  bench::drive(c, [&]() -> sim::Task<void> {
    auto open = co_await client->open("f");
    ORDMA_CHECK(open.ok());
    auto& h = c.client(0);
    const mem::Vaddr buf = h.map_new(h.user_as(), io_size);

    const Bytes span = static_cast<Bytes>(samples) * io_size;
    ORDMA_CHECK(span <= kFileSize);
    // Warm-up pass: untraced.
    for (int i = 0; i < samples; ++i) {
      auto r = co_await client->pread(open.value().fh,
                                      static_cast<Bytes>(i) * io_size, buf,
                                      io_size);
      ORDMA_CHECK(r.ok() && r.value() == io_size);
    }

    obs::install(&recorder);
    const auto t0 = c.engine().now();
    for (int i = 0; i < samples; ++i) {
      auto r = co_await client->pread(open.value().fh,
                                      static_cast<Bytes>(i) * io_size, buf,
                                      io_size);
      ORDMA_CHECK(r.ok() && r.value() == io_size);
    }
    out.e2e_us = (c.engine().now() - t0).to_us() / samples;
    obs::install(static_cast<obs::TraceRecorder*>(nullptr));

    if (odafs) {
      ORDMA_CHECK_MSG(odafs->ordma_reads() > 0, "ORDMA path not exercised");
    }
  });

  obs::Breakdown sum;
  sum.ops = 0;
  for (const auto& [op, b] : obs::attribute(recorder)) {
    if (std::string_view(b.root_name) != "op/pread") continue;
    sum += b;
  }
  ORDMA_CHECK_MSG(sum.ops == static_cast<std::size_t>(samples),
                  "expected one op/pread root per measured read");
  out.avg = sum.averaged();
  out.ops = sum.ops;

  // The buckets must sum to the measured end-to-end latency (2% slack for
  // the op-envelope edges: syscall entry before t0 is impossible here, but
  // keep the check honest rather than exact).
  const double delta =
      std::abs(out.avg.sum_us() - out.e2e_us) / out.e2e_us;
  ORDMA_CHECK_MSG(delta <= 0.02, "attribution does not sum to e2e latency");

  // Cause-level view of the same trace; the sweep partitions each op's
  // envelope, so per-cause times must sum to its end-to-end latency too.
  for (auto& [op, bd] : obs::explain(recorder)) {
    if (std::string_view(bd.root_name) != "op/pread") continue;
    ORDMA_CHECK_MSG(std::abs(bd.sum_us() - bd.total_us) <=
                        0.02 * bd.total_us,
                    "explainer causes do not sum to op latency");
    out.causes.emplace(op, bd);
  }
  return out;
}

// Per-protocol explainer documents collected for --explain output.
struct ExplainDoc {
  std::string label;
  std::map<obs::OpId, obs::CauseBreakdown> causes;
};

// Metric name fragment: "nfs", "rddp_rpc", "dafs", "odafs".
std::string proto_key(Proto p) {
  switch (p) {
    case Proto::nfs: return "nfs";
    case Proto::prepost: return "rddp_rpc";
    case Proto::dafs: return "dafs";
    case Proto::odafs: return "odafs";
  }
  return "?";
}

void print_table(unsigned jobs, Bytes io_size, int samples,
                 obs::TraceRecorder* rec_last, bench::BenchReport* report,
                 std::vector<ExplainDoc>* explain_out) {
  bench::Table t(
      "Per-" + std::to_string(io_size / 1024) +
          "KB-read overhead attribution (us, mean of " +
          std::to_string(samples) + " warm-cache reads)",
      {"protocol", "per-byte", "per-packet", "per-I/O", "NIC", "wire", "disk",
       "other", "sum", "e2e"});
  const Proto protos[] = {Proto::nfs, Proto::prepost, Proto::dafs,
                          Proto::odafs};
  // rec_last (the --trace sink) is only non-null when the session forced
  // jobs=1, so the session recorder never crosses a thread.
  auto results = bench::sweep(jobs, std::size(protos), [&](std::size_t i) {
    obs::TraceRecorder* rec =
        (protos[i] == Proto::odafs) ? rec_last : nullptr;
    return run_proto(protos[i], io_size, samples, rec);
  });
  for (std::size_t i = 0; i < std::size(protos); ++i) {
    const Proto p = protos[i];
    RunResult& r = results[i];
    auto cell = [&r](obs::Category c) { return bench::fmt("%.1f", r.avg[c]); };
    t.add_row({proto_name(p), cell(obs::Category::per_byte),
               cell(obs::Category::per_packet), cell(obs::Category::per_io),
               cell(obs::Category::nic), cell(obs::Category::wire),
               cell(obs::Category::disk), cell(obs::Category::other),
               bench::fmt("%.1f", r.avg.sum_us()),
               bench::fmt("%.1f", r.e2e_us)});
    if (report) {
      // Simulated time reproduces bit-identically: tight tolerance.
      const std::string key =
          proto_key(p) + "_" + std::to_string(io_size / 1024) + "k";
      report->add(key + "_e2e_us", r.e2e_us, "us",
                  /*higher_is_better=*/false, 0.02);
      report->add(key + "_per_byte_us", r.avg[obs::Category::per_byte], "us",
                  /*higher_is_better=*/false, 0.02);
    }
    if (explain_out) {
      ExplainDoc doc;
      doc.label = std::string(proto_name(p)) + " " +
                  std::to_string(io_size / 1024) + "KB pread";
      doc.causes = std::move(r.causes);
      explain_out->push_back(std::move(doc));
    }
  }
  t.print();
}

}  // namespace
}  // namespace ordma

int main(int argc, char** argv) {
  using namespace ordma;
  // --trace=<file> captures the ODAFS 64KB run (the most interesting tree);
  // --metrics is accepted for interface uniformity but writes nothing here
  // (each run owns a fresh cluster). This binary adds:
  //   --json=<file>     ordma.bench.v1 metrics (see bench_json.h)
  //   --explain=<file>  JSON array of ordma.explain.v1 "p99 explainer"
  //                     documents, one per protocol, for the 8KB runs
  obs::ObsSession session(argc, argv);
  obs::install(static_cast<obs::TraceRecorder*>(nullptr));  // runs install recorders themselves

  const std::string json = bench::json_path(argc, argv);
  std::string explain_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 10) == "--explain=") {
      explain_path = std::string(arg.substr(10));
    }
  }

  bench::BenchReport report("table1_attribution");
  std::vector<ExplainDoc> explains;
  print_table(session.jobs(), KiB(8), 256, nullptr, &report,
              explain_path.empty() ? nullptr : &explains);
  print_table(session.jobs(), KiB(64), 64, session.recorder(), &report,
              nullptr);

  std::printf(
      "\nbuckets are a full partition of each op's latency; \"other\" is\n"
      "queueing/sync time no instrumented stage was active for.\n");

  if (!bench::write_json(report, json)) return 1;
  if (!explain_path.empty()) {
    std::ofstream f(explain_path);
    if (!f) {
      std::fprintf(stderr, "failed to write %s\n", explain_path.c_str());
      return 1;
    }
    f << "[\n";
    for (std::size_t i = 0; i < explains.size(); ++i) {
      obs::write_explain_json(f, explains[i].label.c_str(),
                              explains[i].causes);
      if (i + 1 < explains.size()) f << ",\n";
    }
    f << "]\n";
    std::printf("explainer json written to %s\n", explain_path.c_str());
  }
  return 0;
}
