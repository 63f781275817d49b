// Unit tests for the discrete-event engine and coroutine primitives:
// ordering, determinism, cancellation safety, resource accounting.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <thread>
#include <vector>

#include "sim/channel.h"
#include "sim/engine.h"
#include "sim/event.h"
#include "sim/frame_pool.h"
#include "sim/resource.h"
#include "sim/task.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace ordma::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine eng;
  EXPECT_EQ(eng.now().ns, 0);
  EXPECT_TRUE(eng.idle());
}

TEST(Engine, ScheduleFnFiresInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_fn(usec(30), [&] { order.push_back(3); });
  eng.schedule_fn(usec(10), [&] { order.push_back(1); });
  eng.schedule_fn(usec(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), SimTime{} + usec(30));
}

TEST(Engine, SameTickFiresInSchedulingOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.schedule_fn(usec(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, CancelledTimerDoesNotFire) {
  Engine eng;
  bool fired = false;
  auto* node = eng.schedule_fn(usec(1), [&] { fired = true; });
  node->cancelled = true;
  eng.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, RunUntilStopsAtBound) {
  Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule_fn(usec(i * 10), [&] { ++count; });
  }
  eng.run_until(SimTime{} + usec(50));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(eng.now(), SimTime{} + usec(50));
  eng.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, DelayResumesCoroutineAtRightTime) {
  Engine eng;
  SimTime resumed{};
  eng.spawn([](Engine& e, SimTime& out) -> Task<void> {
    co_await e.delay(usec(42));
    out = e.now();
  }(eng, resumed));
  eng.run();
  EXPECT_EQ(resumed, SimTime{} + usec(42));
  EXPECT_EQ(eng.live_processes(), 0u);
}

TEST(Engine, NestedTasksReturnValues) {
  Engine eng;
  int result = 0;

  struct Helper {
    static Task<int> leaf(Engine& e) {
      co_await e.delay(usec(1));
      co_return 21;
    }
    static Task<int> mid(Engine& e) {
      int a = co_await leaf(e);
      int b = co_await leaf(e);
      co_return a + b;
    }
  };

  eng.spawn([](Engine& e, int& out) -> Task<void> {
    out = co_await Helper::mid(e);
  }(eng, result));
  eng.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(eng.now(), SimTime{} + usec(2));
}

TEST(Engine, SpawnedProcessesInterleaveDeterministically) {
  Engine eng;
  std::vector<std::pair<int, std::int64_t>> log;

  auto proc = [](Engine& e, int id, Duration step,
                 std::vector<std::pair<int, std::int64_t>>& log)
      -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await e.delay(step);
      log.emplace_back(id, e.now().ns);
    }
  };
  eng.spawn(proc(eng, 1, usec(10), log));
  eng.spawn(proc(eng, 2, usec(15), log));
  eng.run();

  ASSERT_EQ(log.size(), 6u);
  // t=10(p1), 15(p2), 20(p1); at t=30 p2's timer was scheduled earlier
  // (at t=15 vs t=20) so its sequence number wins; then 45(p2).
  EXPECT_EQ(log[0], (std::pair<int, std::int64_t>{1, usec(10).ns}));
  EXPECT_EQ(log[1], (std::pair<int, std::int64_t>{2, usec(15).ns}));
  EXPECT_EQ(log[2], (std::pair<int, std::int64_t>{1, usec(20).ns}));
  EXPECT_EQ(log[3], (std::pair<int, std::int64_t>{2, usec(30).ns}));
  EXPECT_EQ(log[4], (std::pair<int, std::int64_t>{1, usec(30).ns}));
  EXPECT_EQ(log[5], (std::pair<int, std::int64_t>{2, usec(45).ns}));
}

TEST(Engine, DestroyingEngineWithSuspendedProcessesIsSafe) {
  auto eng = std::make_unique<Engine>();
  eng->spawn([](Engine& e) -> Task<void> {
    co_await e.delay(sec(100));  // never fires
  }(*eng));
  eng->run_until(SimTime{} + usec(1));
  EXPECT_EQ(eng->live_processes(), 1u);
  eng.reset();  // must not crash or leak (ASAN-checked in CI-style runs)
}

TEST(Event, WakesAllWaitersWithValue) {
  Engine eng;
  Event<int> ev(eng);
  std::vector<int> got;

  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine&, Event<int>& ev, std::vector<int>& got)
                  -> Task<void> {
      got.push_back(co_await ev.wait());
    }(eng, ev, got));
  }
  eng.schedule_fn(usec(5), [&] { ev.set(7); });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{7, 7, 7}));
}

TEST(Event, WaitAfterSetCompletesImmediately) {
  Engine eng;
  Event<int> ev(eng);
  ev.set(9);
  int got = 0;
  eng.spawn([](Event<int>& ev, int& got) -> Task<void> {
    got = co_await ev.wait();
  }(ev, got));
  eng.run();
  EXPECT_EQ(got, 9);
}

TEST(Event, VoidEventWorks) {
  Engine eng;
  Event<> ev(eng);
  bool done = false;
  eng.spawn([](Event<>& ev, bool& done) -> Task<void> {
    co_await ev.wait();
    done = true;
  }(ev, done));
  eng.schedule_fn(usec(1), [&] { ev.set(); });
  eng.run();
  EXPECT_TRUE(done);
}

TEST(Event, WaitForWithoutTimeoutWaitsForSet) {
  // wait_for(d <= 0) is the untimed wait: it resumes with the value at the
  // set() instant and schedules no timer, so the run fires exactly as many
  // entries as a plain wait().
  auto run = [](bool timed, std::optional<int>& got, SimTime& at) {
    Engine eng;
    Event<int> ev(eng);
    eng.spawn([](Engine& eng, Event<int>& ev, bool timed,
                 std::optional<int>& got, SimTime& at) -> Task<void> {
      if (timed) {
        got = co_await ev.wait_for(Duration{0});
      } else {
        got = co_await ev.wait();
      }
      at = eng.now();
    }(eng, ev, timed, got, at));
    eng.schedule_fn(usec(5), [&] { ev.set(7); });
    return eng.run();
  };
  std::optional<int> timed_got, plain_got;
  SimTime timed_at, plain_at;
  const std::uint64_t timed_events = run(true, timed_got, timed_at);
  const std::uint64_t plain_events = run(false, plain_got, plain_at);
  EXPECT_EQ(timed_got, std::optional<int>(7));
  EXPECT_EQ(timed_at.ns, usec(5).ns);
  EXPECT_EQ(plain_got, std::optional<int>(7));
  EXPECT_EQ(plain_at.ns, usec(5).ns);
  EXPECT_EQ(timed_events, plain_events);
}

TEST(Channel, FifoDelivery) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<int> got;
  eng.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<void> {
    for (int i = 0; i < 4; ++i) got.push_back(co_await ch.recv());
  }(ch, got));
  eng.schedule_fn(usec(1), [&] {
    ch.send(1);
    ch.send(2);
  });
  eng.schedule_fn(usec(2), [&] {
    ch.send(3);
    ch.send(4);
  });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Channel, MultipleReceiversServedInOrder) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  for (int r = 0; r < 2; ++r) {
    eng.spawn([](Channel<int>& ch, int r,
                 std::vector<std::pair<int, int>>& got) -> Task<void> {
      got.emplace_back(r, co_await ch.recv());
    }(ch, r, got));
  }
  eng.schedule_fn(usec(1), [&] {
    ch.send(100);
    ch.send(200);
  });
  eng.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 100}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 200}));
}

TEST(Channel, TryRecvNonBlocking) {
  Engine eng;
  Channel<int> ch(eng);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(5);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

TEST(Resource, SerialisesWorkBeyondCapacity) {
  Engine eng;
  Resource cpu(eng, 1, "cpu");
  std::vector<std::int64_t> completion_times;

  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine& e, Resource& cpu,
                 std::vector<std::int64_t>& out) -> Task<void> {
      co_await cpu.consume(usec(10));
      out.push_back(e.now().ns);
    }(eng, cpu, completion_times));
  }
  eng.run();
  ASSERT_EQ(completion_times.size(), 3u);
  EXPECT_EQ(completion_times[0], usec(10).ns);
  EXPECT_EQ(completion_times[1], usec(20).ns);
  EXPECT_EQ(completion_times[2], usec(30).ns);
}

TEST(Resource, CapacityTwoRunsPairsConcurrently) {
  Engine eng;
  Resource r(eng, 2, "dual");
  std::vector<std::int64_t> completion_times;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Resource& r,
                 std::vector<std::int64_t>& out) -> Task<void> {
      co_await r.consume(usec(10));
      out.push_back(e.now().ns);
    }(eng, r, completion_times));
  }
  eng.run();
  ASSERT_EQ(completion_times.size(), 4u);
  EXPECT_EQ(completion_times[0], usec(10).ns);
  EXPECT_EQ(completion_times[1], usec(10).ns);
  EXPECT_EQ(completion_times[2], usec(20).ns);
  EXPECT_EQ(completion_times[3], usec(20).ns);
}

TEST(Resource, BusyTimeAccountsUtilisation) {
  Engine eng;
  Resource cpu(eng, 1, "cpu");
  // 30us of work over a 100us window → 30% utilisation.
  eng.spawn([](Engine& e, Resource& cpu) -> Task<void> {
    co_await e.delay(usec(10));
    co_await cpu.consume(usec(30));
  }(eng, cpu));
  eng.schedule_fn(usec(100), [] {});  // extend the run to 100us
  eng.run();
  const Duration busy = cpu.busy_time();
  EXPECT_EQ(busy, usec(30));
  EXPECT_DOUBLE_EQ(Resource::utilisation(Duration{}, busy, SimTime{},
                                         SimTime{} + usec(100), 1),
                   0.3);
}

TEST(Resource, FifoOrderUnderContention) {
  Engine eng;
  Resource r(eng, 1, "r");
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](Resource& r, int i, std::vector<int>& order) -> Task<void> {
      co_await r.consume(usec(1));
      order.push_back(i);
    }(r, i, order));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Determinism: two identical runs produce identical event traces.
TEST(Engine, RunsAreBitReproducible) {
  auto run_once = [] {
    Engine eng;
    Resource cpu(eng, 1, "cpu");
    Channel<int> ch(eng);
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 8; ++i) {
      eng.spawn([](Engine& e, Resource& cpu, Channel<int>& ch, int i,
                   std::vector<std::int64_t>& trace) -> Task<void> {
        co_await e.delay(usec(i % 3));
        co_await cpu.consume(usec(2 + i % 2));
        ch.send(i);
        trace.push_back(e.now().ns * 100 + i);
      }(eng, cpu, ch, i, trace));
    }
    eng.spawn([](Channel<int>& ch, std::vector<std::int64_t>& trace)
                  -> Task<void> {
      for (int i = 0; i < 8; ++i) {
        trace.push_back(1000000 + co_await ch.recv());
      }
    }(ch, trace));
    eng.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// A coroutine whose frame holds `N` bytes across its suspension point.
template <std::size_t N>
Task<int> frame_of_size(Engine& eng) {
  std::array<std::byte, N> bytes{};
  bytes[N - 1] = std::byte{7};
  co_await eng.delay(nsec(1));
  co_return static_cast<int>(bytes[N - 1]);
}

TEST(FramePool, SmallFramesArePooledAndRecycled) {
  Engine eng;
  const FramePool::Stats before = FramePool::stats();
  void* address = nullptr;
  {
    Task<int> t = frame_of_size<256>(eng);
    address = t.raw_handle().address();
    EXPECT_EQ(FramePool::stats().live, before.live + 1);
    EXPECT_EQ(FramePool::stats().heap_live, before.heap_live);
  }
  EXPECT_EQ(FramePool::stats().live, before.live);
  // The class's free list is LIFO: the next frame of that size reuses it.
  Task<int> again = frame_of_size<256>(eng);
  EXPECT_EQ(again.raw_handle().address(), address);
}

TEST(FramePool, FramesBeyondTheLargestClassUseTheHeap) {
  Engine eng;
  const FramePool::Stats before = FramePool::stats();
  {
    Task<int> t = frame_of_size<2 * FramePool::kMaxPooled>(eng);
    EXPECT_EQ(FramePool::stats().heap_live, before.heap_live + 1);
    EXPECT_EQ(FramePool::stats().live, before.live);
    // It still runs like any other task.
    int got = 0;
    eng.spawn([](Task<int> t, int& out) -> Task<void> {
      out = co_await std::move(t);
    }(std::move(t), got));
    eng.run();
    EXPECT_EQ(got, 7);
  }
  EXPECT_EQ(FramePool::stats().heap_live, before.heap_live);
  EXPECT_EQ(FramePool::stats().live, before.live);
}

TEST(FramePool, EachThreadHasItsOwnPool) {
  const FramePool::Stats mine = FramePool::stats();
  FramePool::Stats theirs_live{};
  FramePool::Stats theirs_done{};
  std::thread([&] {
    Engine eng;
    {
      Task<int> t = frame_of_size<128>(eng);
      theirs_live = FramePool::stats();
    }
    theirs_done = FramePool::stats();
  }).join();
  EXPECT_EQ(theirs_live.live, 1u);
  EXPECT_GE(theirs_live.chunks, 1u);
  EXPECT_EQ(theirs_done.live, 0u);
  EXPECT_EQ(FramePool::stats().live, mine.live);
}

TEST(FramePool, DestroyedFramesArePoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  Engine eng;
  const std::byte* frame = nullptr;
  {
    Task<int> t = frame_of_size<64>(eng);
    frame = static_cast<const std::byte*>(t.raw_handle().address());
    EXPECT_FALSE(__asan_address_is_poisoned(frame));
  }
  // Idle in the pool: touching the destroyed coroutine's frame faults...
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
  EXPECT_DEATH(
      {
        volatile std::byte x = *frame;
        (void)x;
      },
      "use-after-poison");
  // ...until the pool hands the frame out again.
  Task<int> again = frame_of_size<64>(eng);
  EXPECT_EQ(again.raw_handle().address(), frame);
  EXPECT_FALSE(__asan_address_is_poisoned(frame));
#else
  GTEST_SKIP() << "built without AddressSanitizer";
#endif
}

}  // namespace
}  // namespace ordma::sim
