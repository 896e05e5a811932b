#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "sim/condition.hpp"
#include "util/panic.hpp"

namespace mad::sim {
namespace {

// Lines of /proc/self/maps (one per memory mapping), or 0 when unreadable.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) {
    ++lines;
  }
  return lines;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// The kernel's id of the calling thread: unlike std::thread::id, it tells
// one OS thread from another across engines.
long thread_id() { return syscall(SYS_gettid); }

// Records the id of the thread that destroys it (the thread that runs, or
// releases, the actor whose closure holds the last reference).
struct RecordsThreadOnRelease {
  std::set<long>* ids;
  ~RecordsThreadOnRelease() { ids->insert(thread_id()); }
};

// Spawns `n` actors that record their thread id and then sleep, so all `n`
// are blocked at once and each needs a worker of its own.
void spawn_sleepers(Engine& eng, int n, std::set<long>& ids) {
  for (int i = 0; i < n; ++i) {
    eng.spawn("sleeper" + std::to_string(i), [&eng, &ids] {
      ids.insert(thread_id());
      eng.sleep_for(1);
    });
  }
}

// VmSize of this process in bytes, or 0 when unreadable.
std::size_t address_space_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoul(line.substr(7)) * 1024;
    }
  }
  return 0;
}

TEST(Engine, RunsSingleActorToCompletion) {
  Engine eng;
  bool ran = false;
  eng.spawn("a", [&] { ran = true; });
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, SleepAdvancesVirtualClock) {
  Engine eng;
  Time seen = -1;
  eng.spawn("a", [&] {
    Engine::current()->sleep_for(microseconds(150));
    seen = Engine::current()->now();
  });
  eng.run();
  EXPECT_EQ(seen, microseconds(150));
  EXPECT_EQ(eng.now(), microseconds(150));
}

TEST(Engine, ZeroAndNegativePastSleepReturnImmediately) {
  Engine eng;
  eng.spawn("a", [&] {
    Engine* e = Engine::current();
    e->sleep_for(0);
    EXPECT_EQ(e->now(), 0);
    e->sleep_until(-5);  // already past
    EXPECT_EQ(e->now(), 0);
  });
  eng.run();
}

TEST(Engine, ActorsInterleaveInTimestampOrder) {
  Engine eng;
  std::vector<int> order;
  eng.spawn("slow", [&] {
    Engine::current()->sleep_for(microseconds(20));
    order.push_back(2);
  });
  eng.spawn("fast", [&] {
    Engine::current()->sleep_for(microseconds(10));
    order.push_back(1);
  });
  eng.spawn("immediate", [&] { order.push_back(0); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, SimultaneousTimersWakeInActorIdOrder) {
  Engine eng;
  std::vector<std::string> order;
  for (const char* name : {"first", "second", "third"}) {
    eng.spawn(name, [&order, name] {
      Engine::current()->sleep_for(microseconds(5));
      order.emplace_back(name);
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(Engine, YieldRotatesThroughReadyActors) {
  Engine eng;
  std::vector<int> order;
  eng.spawn("a", [&] {
    order.push_back(1);
    Engine::current()->yield();
    order.push_back(3);
  });
  eng.spawn("b", [&] {
    order.push_back(2);
    Engine::current()->yield();
    order.push_back(4);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::pair<std::string, Time>> events;
    for (int i = 0; i < 5; ++i) {
      eng.spawn("actor" + std::to_string(i), [&events, i] {
        Engine* e = Engine::current();
        for (int k = 0; k < 10; ++k) {
          e->sleep_for(microseconds(1 + (i * 7 + k) % 13));
          events.emplace_back(e->current_actor_name(), e->now());
        }
      });
    }
    eng.run();
    return std::make_pair(events, eng.context_switches());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(Engine, SpawnFromRunningActor) {
  Engine eng;
  std::vector<int> order;
  eng.spawn("parent", [&] {
    order.push_back(1);
    Engine::current()->spawn("child", [&] { order.push_back(2); });
    Engine::current()->sleep_for(microseconds(1));
    order.push_back(3);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ActorExceptionPropagatesFromRun) {
  Engine eng;
  eng.spawn("boom", [] { throw std::runtime_error("actor failed"); });
  eng.spawn("other", [] {
    Engine::current()->sleep_for(seconds(100));  // must be unwound
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, PanicInsideActorPropagates) {
  Engine eng;
  eng.spawn("bad", [] { MAD_PANIC("invariant"); });
  EXPECT_THROW(eng.run(), util::PanicError);
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  Condition cond(eng, "never-signalled");
  eng.spawn("waiter", [&] { cond.wait(); });
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST(Engine, DeadlockMessageNamesActorAndCondition) {
  Engine eng;
  Condition cond(eng, "my-cond");
  eng.spawn("stuck-actor", [&] { cond.wait(); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-actor"), std::string::npos);
    EXPECT_NE(what.find("my-cond"), std::string::npos);
  }
}

TEST(Engine, DaemonDoesNotKeepSimulationAlive) {
  Engine eng;
  int ticks = 0;
  eng.spawn(
      "poller",
      [&] {
        for (;;) {
          Engine::current()->sleep_for(microseconds(10));
          ++ticks;
        }
      },
      /*daemon=*/true);
  eng.spawn("work", [&] { Engine::current()->sleep_for(microseconds(35)); });
  eng.run();
  EXPECT_EQ(ticks, 3);  // 10, 20, 30 µs; daemon unwound at 35 µs
  EXPECT_EQ(eng.now(), microseconds(35));
}

TEST(Engine, DaemonBlockedForeverIsUnwound) {
  Engine eng;
  Condition cond(eng, "daemon-wait");
  bool unwound = false;
  eng.spawn(
      "daemon",
      [&] {
        try {
          cond.wait();
        } catch (const StopSimulation&) {
          unwound = true;
          throw;
        }
      },
      /*daemon=*/true);
  eng.spawn("main", [] {});
  eng.run();
  EXPECT_TRUE(unwound);
}

TEST(Engine, TimeHorizonAborts) {
  Engine eng;
  eng.set_time_horizon(milliseconds(1));
  eng.spawn("runaway", [] {
    for (;;) {
      Engine::current()->sleep_for(microseconds(100));
    }
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, CurrentIsNullOutsideActors) {
  EXPECT_EQ(Engine::current(), nullptr);
  Engine eng;
  eng.spawn("a", [] { EXPECT_NE(Engine::current(), nullptr); });
  eng.run();
  EXPECT_EQ(Engine::current(), nullptr);
}

TEST(Engine, CurrentActorNameVisibleInside) {
  Engine eng;
  eng.spawn("self-aware", [&] {
    EXPECT_EQ(eng.current_actor_name(), "self-aware");
    EXPECT_EQ(eng.current_actor_id(), 0);
  });
  eng.run();
  EXPECT_EQ(eng.current_actor_name(), "<none>");
}

TEST(Engine, AbortDestroysNeverRunClosuresBeforeRunRethrows) {
  // The closure of an actor skipped at shutdown must not outlive run():
  // its captures may point into objects destroyed before the engine.
  Engine eng;
  auto capture = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = capture;
  eng.spawn("boom", [] { throw std::runtime_error("abort"); });
  eng.spawn("never", [capture] { FAIL() << "ran after the abort"; });
  capture.reset();
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_TRUE(watch.expired()) << "closure captures survive until ~Engine";
}

TEST(Engine, FinishedActorReleasesItsClosure) {
  Engine eng;
  auto capture = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = capture;
  eng.spawn("a", [capture] { EXPECT_EQ(*capture, 7); });
  capture.reset();
  eng.run();
  EXPECT_TRUE(watch.expired());
}

TEST(Engine, DestructionWithoutRunIsClean) {
  std::vector<std::weak_ptr<int>> watches;
  {
    Engine eng;
    for (int i = 0; i < 5; ++i) {
      auto capture = std::make_shared<int>(i);
      watches.push_back(capture);
      eng.spawn("never-ran-" + std::to_string(i),
                [capture] { FAIL() << "body must not execute"; });
    }
    for (const auto& w : watches) {
      EXPECT_FALSE(w.expired());
    }
    // ~Engine must release every parked actor without running its body
    // and destroy its closure.
  }
  for (const auto& w : watches) {
    EXPECT_TRUE(w.expired());
  }
}

TEST(Engine, ChainedActorsSeeTheirOwnIdentity) {
  // Each link spawns the next and finishes, so the links run one after
  // another on reused worker threads: none may see its predecessor's
  // identity, before or after blocking.
  Engine eng;
  constexpr int kChain = 50;
  std::vector<ActorId> spawned;
  int checked = 0;
  std::function<void(int)> link = [&](int i) {
    const std::string name = "link" + std::to_string(i);
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_EQ(Engine::current(), &eng);
      EXPECT_EQ(eng.current_actor_id(), spawned[static_cast<std::size_t>(i)]);
      EXPECT_EQ(eng.current_actor_name(), name);
      eng.sleep_for(1);  // blocks on this actor's own timer
    }
    ++checked;
    if (i + 1 < kChain) {
      spawned.push_back(
          eng.spawn("link" + std::to_string(i + 1), [&link, i] { link(i + 1); })
              .id());
    }
  };
  spawned.push_back(eng.spawn("link0", [&link] { link(0); }).id());
  eng.run();
  EXPECT_EQ(checked, kChain);
  EXPECT_EQ(eng.now(), 2 * kChain);
}

TEST(Engine, ShortLivedActorChainKeepsMappingsFlat) {
  // A finished actor must not keep its thread's stack and guard mappings:
  // a long enough chain would otherwise exhaust vm.max_map_count.
  Engine eng;
  constexpr int kChain = 2000;
  std::size_t at_last = 0;
  std::function<void(int)> link = [&](int i) {
    eng.sleep_for(1);
    if (i + 1 < kChain) {
      eng.spawn("link" + std::to_string(i + 1), [&link, i] { link(i + 1); });
    } else {
      at_last = mapping_count();
    }
  };
  eng.spawn("link0", [&link] { link(0); });
  const std::size_t before = mapping_count();
  if (before == 0) {
    GTEST_SKIP() << "/proc/self/maps is unreadable";
  }
  eng.run();
  ASSERT_GT(at_last, 0u);
  const long growth = static_cast<long>(at_last) - static_cast<long>(before);
  EXPECT_LT(growth, 64) << "mappings before run: " << before
                        << ", in the last of " << kChain
                        << " chained actors: " << at_last;
}

TEST(Engine, FailedSpawnReachesRunIntact) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer shadow memory does not fit an address-space cap";
  }
  // Live actors each hold a worker thread. Capping the address space makes
  // a thread creation fail; its std::system_error must reach run() as the
  // actor's error, not leave a never-runnable actor behind. Workers parked
  // by earlier engines of this process are taken first and need no new
  // thread, so the root spawns until a creation fails; the bound is far
  // above any actor count an earlier engine could have parked.
  constexpr int kBound = 1 << 16;
  Engine eng;
  Condition never(eng, "never");
  int spawned = 0;
  eng.spawn("root", [&] {
    for (int i = 0; i < kBound; ++i) {
      eng.spawn("live" + std::to_string(i), [&never] { never.wait(); },
                /*daemon=*/true);
      ++spawned;
    }
  });
  rlimit saved{};
  const std::size_t used = address_space_bytes();
  if (used == 0 || getrlimit(RLIMIT_AS, &saved) != 0) {
    GTEST_SKIP() << "address-space size or limit unavailable";
  }
  rlimit capped = saved;
  capped.rlim_cur = used + (std::size_t{64} << 20);
  if (capped.rlim_cur > saved.rlim_max || setrlimit(RLIMIT_AS, &capped) != 0) {
    GTEST_SKIP() << "cannot cap the address space";
  }
  EXPECT_THROW(eng.run(), std::system_error);
  setrlimit(RLIMIT_AS, &saved);
  EXPECT_GT(spawned, 0);
  EXPECT_LT(spawned, kBound);
}

TEST(Engine, LaterEngineReusesEarlierWorkers) {
  // Workers outlive the engine that started them: a later engine runs its
  // actors on the threads an earlier one parked, and starts none.
  constexpr int kActors = 8;
  std::set<long> first;
  {
    Engine a;
    spawn_sleepers(a, kActors, first);
    a.run();
  }
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kActors));
  std::set<long> second;
  Engine b;
  spawn_sleepers(b, kActors, second);
  b.run();
  EXPECT_EQ(second, first);
}

TEST(Engine, CurrentNamesTheBorrowingEngine) {
  // A reused worker must answer for the engine that borrowed it, not for
  // the one that started its thread.
  std::set<long> first;
  {
    Engine a;
    spawn_sleepers(a, 2, first);
    a.run();
  }
  EXPECT_EQ(Engine::current(), nullptr);
  Engine b;
  int checked = 0;
  for (int i = 0; i < 2; ++i) {
    const std::string name = "borrower" + std::to_string(i);
    b.spawn(name, [&b, &first, &checked, name, i] {
      EXPECT_EQ(first.count(thread_id()), 1u) << "not a reused worker";
      for (int pass = 0; pass < 2; ++pass) {
        EXPECT_EQ(Engine::current(), &b);
        EXPECT_EQ(b.current_actor_id(), i);
        EXPECT_EQ(b.current_actor_name(), name);
        b.sleep_for(1);
      }
      ++checked;
    });
  }
  b.run();
  EXPECT_EQ(checked, 2);
  EXPECT_EQ(Engine::current(), nullptr);
}

TEST(Engine, NeverStartedActorsReturnTheirWorkers) {
  // ~Engine releases never-started actors on their own workers (the
  // closure is destroyed there); those workers must then serve later
  // engines like any other.
  constexpr int kActors = 5;
  std::set<long> released;
  std::vector<std::weak_ptr<RecordsThreadOnRelease>> watches;
  {
    Engine a;
    for (int i = 0; i < kActors; ++i) {
      auto capture = std::make_shared<RecordsThreadOnRelease>(&released);
      watches.push_back(capture);
      a.spawn("never-ran-" + std::to_string(i),
              [capture] { FAIL() << "body must not execute"; });
    }
  }
  for (const auto& w : watches) {
    EXPECT_TRUE(w.expired());
  }
  ASSERT_EQ(released.size(), static_cast<std::size_t>(kActors));
  std::set<long> reused;
  Engine b;
  spawn_sleepers(b, kActors, reused);
  b.run();
  EXPECT_EQ(reused, released);
}

TEST(Engine, DeadlockedRunReturnsItsWorkers) {
  // A run that ends in DeadlockError unwinds every blocked actor, so its
  // workers go back on the list as well.
  constexpr int kActors = 3;
  std::set<long> first;
  {
    Engine a;
    Condition never(a, "never");
    for (int i = 0; i < kActors; ++i) {
      a.spawn("stuck" + std::to_string(i), [&first, &never] {
        first.insert(thread_id());
        never.wait();
      });
    }
    EXPECT_THROW(a.run(), DeadlockError);
  }
  ASSERT_EQ(first.size(), static_cast<std::size_t>(kActors));
  std::set<long> second;
  Engine b;
  spawn_sleepers(b, kActors, second);
  b.run();
  EXPECT_EQ(second, first);
}

TEST(Engine, EnginesOnTwoThreadsShareTheList) {
  // Engines run on two threads at once take workers from, and park them
  // on, the one process-wide list concurrently; each must still run every
  // one of its actors. Each engine runs chains of short-lived actors, so
  // workers move between the list and both engines throughout.
  constexpr int kChains = 20;
  constexpr int kLinks = 20;
  auto run_chains = [](int& done) {
    Engine eng;
    std::function<void(int)> link = [&](int left) {
      eng.sleep_for(left % 3);
      ++done;
      if (left > 1) {
        eng.spawn("link", [&link, left] { link(left - 1); });
      }
    };
    for (int c = 0; c < kChains; ++c) {
      eng.spawn("chain" + std::to_string(c), [&link] { link(kLinks); });
    }
    eng.run();
  };
  int done_a = 0;
  int done_b = 0;
  std::thread a(run_chains, std::ref(done_a));
  std::thread b(run_chains, std::ref(done_b));
  a.join();
  b.join();
  EXPECT_EQ(done_a, kChains * kLinks);
  EXPECT_EQ(done_b, kChains * kLinks);
}

TEST(Engine, ManyActorsComplete) {
  Engine eng;
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    eng.spawn("n" + std::to_string(i), [&done, i] {
      Engine::current()->sleep_for(microseconds(i % 17));
      ++done;
    });
  }
  eng.run();
  EXPECT_EQ(done, 200);
}

}  // namespace
}  // namespace mad::sim
