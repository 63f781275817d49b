// Unit tests for the embedded database: pager, B+-tree (splits, overflow
// chains, persistence across cache resets), and the join driver — all over
// an in-memory fake FileClient so no cluster is needed.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "db/database.h"
#include "db/join.h"
#include "host/host.h"
#include "sim/engine.h"

namespace ordma::db {
namespace {

// A loopback FileClient: files are plain byte vectors, no network.
class FakeFileClient final : public core::FileClient {
 public:
  explicit FakeFileClient(host::Host& host) : FileClient(host) {}

  sim::Task<Result<core::OpenResult>> open(const std::string& path) override {
    co_await host_.engine().delay(usec(1));
    auto it = files_.find(path);
    if (it == files_.end()) co_return Errc::not_found;
    co_return core::OpenResult{it->second.fh, it->second.data.size()};
  }
  sim::Task<Status> close(std::uint64_t) override {
    co_return Status::Ok();
  }
  sim::Task<Result<Bytes>> pread_op(std::uint64_t fh, Bytes off,
                                    mem::Vaddr user_va, Bytes len,
                                    obs::OpId) override {
    co_await host_.engine().delay(usec(10));
    auto* f = by_fh(fh);
    if (!f) co_return Errc::stale;
    if (off >= f->data.size()) co_return Bytes{0};
    const Bytes n = std::min<Bytes>(len, f->data.size() - off);
    if (!host_.user_as()
             .write(user_va,
                    std::span<const std::byte>(f->data.data() + off, n))
             .ok()) {
      co_return Errc::access_fault;
    }
    co_return n;
  }
  sim::Task<Result<Bytes>> pwrite_op(std::uint64_t fh, Bytes off,
                                     mem::Vaddr user_va, Bytes len,
                                     obs::OpId) override {
    co_await host_.engine().delay(usec(10));
    auto* f = by_fh(fh);
    if (!f) co_return Errc::stale;
    if (f->data.size() < off + len) f->data.resize(off + len);
    std::vector<std::byte> tmp(len);
    if (!host_.user_as().read(user_va, tmp).ok()) {
      co_return Errc::access_fault;
    }
    std::copy(tmp.begin(), tmp.end(), f->data.begin() + off);
    co_return len;
  }
  sim::Task<Result<fs::Attr>> getattr_op(std::uint64_t fh,
                                         obs::OpId) override {
    auto* f = by_fh(fh);
    if (!f) co_return Errc::stale;
    fs::Attr a;
    a.ino = fh;
    a.size = f->data.size();
    co_return a;
  }
  sim::Task<Result<core::OpenResult>> create(const std::string& path)
      override {
    co_await host_.engine().delay(usec(1));
    if (files_.count(path)) co_return Errc::already_exists;
    auto& f = files_[path];
    f.fh = next_fh_++;
    co_return core::OpenResult{f.fh, 0};
  }
  sim::Task<Status> unlink(const std::string& path) override {
    files_.erase(path);
    co_return Status::Ok();
  }
  const char* protocol_name() const override { return "fake"; }

 private:
  struct File {
    std::uint64_t fh = 0;
    std::vector<std::byte> data;
  };
  File* by_fh(std::uint64_t fh) {
    for (auto& [name, f] : files_) {
      if (f.fh == fh) return &f;
    }
    return nullptr;
  }
  std::map<std::string, File> files_;
  std::uint64_t next_fh_ = 1;
};

class DbTest : public ::testing::Test {
 protected:
  sim::Engine eng_;
  host::CostModel cm_;
  host::Host host_{eng_, "app", cm_, {MiB(256)}};
  FakeFileClient file_{host_};

  template <typename F>
  void drive(F&& body) {
    bool done = false;
    eng_.spawn([](F body, bool& done) -> sim::Task<void> {
      co_await body();
      done = true;
    }(std::forward<F>(body), done));
    eng_.run();
    ASSERT_TRUE(done);
  }

  static std::vector<std::byte> value(std::size_t n, int seed) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::byte>((i * 31 + seed) & 0xff);
    }
    return v;
  }
};

TEST_F(DbTest, PutGetSmallValues) {
  drive([&]() -> sim::Task<void> {
    auto db = co_await Database::create(host_, file_, "db");
    EXPECT_TRUE(db.ok());
    for (Key k = 1; k <= 50; ++k) {
      EXPECT_TRUE((co_await db.value()->put(k, value(100, k))).ok());
    }
    for (Key k = 1; k <= 50; ++k) {
      auto got = co_await db.value()->get(k);
      EXPECT_TRUE(got.ok());
      EXPECT_EQ(got.value(), value(100, k));
    }
    auto missing = co_await db.value()->get(999);
    EXPECT_EQ(missing.code(), Errc::not_found);
  });
}

TEST_F(DbTest, OverwriteReplacesValue) {
  drive([&]() -> sim::Task<void> {
    auto db = co_await Database::create(host_, file_, "db");
    EXPECT_TRUE((co_await db.value()->put(7, value(64, 1))).ok());
    EXPECT_TRUE((co_await db.value()->put(7, value(64, 2))).ok());
    auto got = co_await db.value()->get(7);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.value(), value(64, 2));
  });
}

TEST_F(DbTest, LargeValuesUseOverflowChains) {
  drive([&]() -> sim::Task<void> {
    auto db = co_await Database::create(host_, file_, "db");
    const auto v = value(KiB(60), 9);  // the paper's record size
    EXPECT_TRUE((co_await db.value()->put(1, v)).ok());
    auto got = co_await db.value()->get(1);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.value().size(), KiB(60));
    EXPECT_EQ(got.value(), v);
    // pages_for must cover tree path + ~8 overflow pages.
    auto pages = co_await db.value()->pages_for(1);
    EXPECT_TRUE(pages.ok());
    EXPECT_GE(pages.value().size(), 8u);
  });
}

TEST_F(DbTest, ManyInsertsCauseSplitsAndStaySorted) {
  drive([&]() -> sim::Task<void> {
    auto db = co_await Database::create(host_, file_, "db");
    // Insert in scrambled order; enough to split leaves and grow height.
    for (Key i = 0; i < 500; ++i) {
      const Key k = (i * 2654435761u) % 100000;
      EXPECT_TRUE((co_await db.value()->put(k, value(200, k))).ok());
    }
    auto keys = co_await db.value()->keys();
    EXPECT_TRUE(keys.ok());
    EXPECT_TRUE(std::is_sorted(keys.value().begin(), keys.value().end()));
    EXPECT_GE(db.value()->tree().height(), 2u);
  });
}

TEST_F(DbTest, PersistsAcrossFlushAndReopen) {
  drive([&]() -> sim::Task<void> {
    {
      auto db = co_await Database::create(host_, file_, "db");
      for (Key k = 1; k <= 100; ++k) {
        EXPECT_TRUE((co_await db.value()->put(k, value(300, k))).ok());
      }
      EXPECT_TRUE((co_await db.value()->sync()).ok());
    }
    auto db2 = co_await Database::open(host_, file_, "db");
    EXPECT_TRUE(db2.ok());
    for (Key k = 1; k <= 100; ++k) {
      auto got = co_await db2.value()->get(k);
      EXPECT_TRUE(got.ok());
      EXPECT_EQ(got.value(), value(300, k));
    }
  });
}

TEST_F(DbTest, CacheResetForcesReRead) {
  drive([&]() -> sim::Task<void> {
    auto db = co_await Database::create(host_, file_, "db");
    EXPECT_TRUE((co_await db.value()->put(1, value(100, 1))).ok());
    EXPECT_TRUE((co_await db.value()->reset_cache()).ok());
    const auto misses0 = db.value()->pager().misses();
    auto got = co_await db.value()->get(1);
    EXPECT_TRUE(got.ok());
    EXPECT_GT(db.value()->pager().misses(), misses0);
  });
}

TEST_F(DbTest, PrefetchOverlapsAndJoinsInflight) {
  drive([&]() -> sim::Task<void> {
    auto db = co_await Database::create(host_, file_, "db");
    EXPECT_TRUE((co_await db.value()->put(1, value(KiB(60), 1))).ok());
    auto pages = co_await db.value()->pages_for(1);
    EXPECT_TRUE((co_await db.value()->reset_cache()).ok());

    for (auto p : pages.value()) db.value()->pager().prefetch(p);
    EXPECT_GT(db.value()->pager().inflight(), 0u);
    auto got = co_await db.value()->get(1);  // joins in-flight I/O
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.value(), value(KiB(60), 1));
  });
}

TEST_F(DbTest, JoinDriverRetrievesEveryRecord) {
  drive([&]() -> sim::Task<void> {
    auto db = co_await Database::create(
        host_, file_, "db", PagerConfig{KiB(8), 256});
    EXPECT_TRUE((co_await load_records(*db.value(), 20, KiB(60))).ok());
    auto keys = co_await db.value()->keys();
    EXPECT_TRUE(keys.ok());
    EXPECT_EQ(keys.value().size(), 20u);

    JoinConfig cfg;
    cfg.copy_per_record = KiB(16);
    cfg.window = 4;
    auto res = co_await run_join(host_, *db.value(), keys.value(), cfg);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.value().records, 20u);
    EXPECT_EQ(res.value().record_bytes, 20 * KiB(60));
    EXPECT_GT(res.value().throughput_MBps, 0.0);
  });
}

}  // namespace
}  // namespace ordma::db
