// Deterministic virtual-time execution engine.
//
// The engine runs a set of actors with the strict discipline that EXACTLY
// ONE actor executes at a time and control only changes hands at blocking
// points (sleep, condition wait, yield). Each actor runs on an OS worker
// thread. A worker whose actor finished goes back on one process-wide list
// for the next spawn of any engine, so neither short-lived actors nor
// short-lived engines cost a thread, stack or mapping each.
// Together with a virtual clock this gives:
//   * determinism — the interleaving is a pure function of program logic,
//     never of host scheduling;
//   * race freedom — shared state needs no locking between actors;
//   * exact timing — durations are *charged* (sleep_for) according to the
//     hardware models in src/net, not measured.
//
// This substitutes for the paper's real Pentium-II/Linux-2.2 testbed and its
// Marcel user-level threads: what the evaluation measures is overlap and bus
// contention, which a virtual-time engine reproduces faithfully (DESIGN.md
// §3).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "sim/timer_queue.hpp"

namespace mad::sim {

class Engine;
class Condition;
class TraceSink;

/// Identifies an actor within its engine; also the deterministic tie-breaker
/// for simultaneous timer wakeups.
using ActorId = int;

/// Why a blocking wait returned.
enum class WakeReason { Notified, Timeout };

/// Thrown inside actor frames when the engine shuts down (all non-daemon
/// actors finished, or an error occurred elsewhere). Intentionally not
/// derived from std::exception so that user-level `catch (...)`-free code
/// cannot swallow it by accident; the actor trampoline catches it.
struct StopSimulation {};

/// Reported by Engine::run when non-daemon actors are all blocked with no
/// timer pending.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Lightweight handle to a spawned actor.
class ActorHandle {
 public:
  ActorHandle() = default;
  ActorId id() const { return id_; }
  bool valid() const { return id_ >= 0; }

 private:
  friend class Engine;
  explicit ActorHandle(ActorId id) : id_(id) {}
  ActorId id_ = -1;
};

/// The virtual-time engine. Create, spawn actors, run().
class Engine {
 public:
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an actor. `daemon` actors do not keep the simulation alive:
  /// once every non-daemon actor has finished, daemons are unwound with
  /// StopSimulation. May be called before run() or from a running actor.
  ActorHandle spawn(std::string name, std::function<void()> body,
                    bool daemon = false);

  /// Runs the simulation until all non-daemon actors finish. Rethrows the
  /// first actor exception, throws DeadlockError on deadlock, and throws
  /// std::runtime_error if the clock passes the configured horizon.
  void run();

  /// Current virtual time.
  Time now() const { return now_; }

  /// Aborts run() with an error if virtual time would exceed this horizon —
  /// a safety net against accidental infinite simulations.
  void set_time_horizon(Time horizon) { horizon_ = horizon; }

  /// Attaches a trace sink; when it is enabled the scheduler records actor
  /// lifecycle instants (actor.spawn / actor.block / actor.wake) on each
  /// actor's own track. The sink must outlive the engine (or be detached
  /// with nullptr first).
  void set_trace(TraceSink* trace) { trace_ = trace; }
  TraceSink* trace() const { return trace_; }

  /// --- blocking operations; must be called from an actor of this engine ---

  /// Advances this actor's virtual time by `duration` (>= 0).
  void sleep_for(Time duration);

  /// Blocks until virtual time `deadline`.
  void sleep_until(Time deadline);

  /// Reschedules the calling actor behind currently-ready actors at the
  /// same virtual instant.
  void yield();

  /// --- introspection ---

  /// The engine owning the calling thread's actor, or nullptr when called
  /// from outside any actor.
  static Engine* current();

  /// Name of the currently running actor ("<none>" outside actors).
  std::string current_actor_name() const;

  /// Id of the currently running actor (-1 outside actors).
  ActorId current_actor_id() const;

  /// True once shutdown has been requested (non-daemons done or error).
  bool stop_requested() const { return stopping_; }

  /// Number of context switches performed — useful as a determinism probe
  /// in tests: two identical runs must report identical counts.
  std::uint64_t context_switches() const { return switches_; }

  /// Scheduler internals exposed for the engine self-benchmark and the
  /// wakeup-storm regression tests. All deterministic counters: two
  /// identical runs must report identical values.
  struct Stats {
    std::uint64_t switches = 0;          // == context_switches()
    std::uint64_t timer_fires = 0;       // timer-queue wakeups delivered
    std::uint64_t notifies = 0;          // Condition notifies that woke someone
    std::uint64_t noop_notifies = 0;     // notifies skipped (no waiters)
    std::uint64_t direct_handoffs = 0;   // actor->actor switches bypassing run()
    std::uint64_t scheduler_rounds = 0;  // times control returned to run()
  };
  Stats stats() const;

 private:
  friend class Condition;

  enum class Status { Created, Ready, Running, Blocked, Finished };

  struct ActorState;
  struct Worker;

  ActorState& self();
  ActorState& actor(ActorId id);

  /// Parks the calling actor (already queued somewhere) and hands control
  /// to the scheduler; returns when rescheduled. Throws StopSimulation if
  /// shutdown happened while parked and the wake reason says so.
  WakeReason park();

  /// The scheduler proper, batched under the caller's single lock hold:
  /// advances timers until an actor is runnable and elects it (a *direct*
  /// handoff when called from a parking or finishing actor — the run()
  /// thread never wakes), or, when nothing is runnable, returns control
  /// to run() for termination/deadlock handling and yields nullptr.
  /// The caller must open the returned actor's gate AFTER dropping
  /// mutex_: waking while still holding it invites the kernel to
  /// wake-preempt us into a 3-switch mutex convoy. `from_actor` only
  /// attributes the switch in stats().
  ActorState* hand_off_locked(bool from_actor);

  /// Shared trampoline tail: marks `a` finished, captures its error, and
  /// elects the next actor (to be woken unlocked, as above).
  ActorState* finish_locked(ActorState& a, std::exception_ptr error);

  /// Pops a parked worker off the process-wide list, or starts a new
  /// thread when none is parked. May throw std::system_error (thread
  /// creation); registers nothing then.
  Worker* take_worker_locked();

  /// A worker thread's loop, for any engine: runs each actor handed to it
  /// to completion, then parks on the process-wide list. Never returns.
  static void worker_main(Worker& w);

  void make_ready(ActorState& a, WakeReason reason);
  void arm_timer(ActorState& a, Time deadline);
  void cancel_timer(ActorState& a);
  void request_stop();
  [[noreturn]] void throw_deadlock();

  mutable std::mutex mutex_;
  std::condition_variable sched_cv_;
  std::vector<std::unique_ptr<ActorState>> actors_;
  std::deque<ActorId> ready_;
  TimerQueue timers_;
  Time now_ = 0;
  Time horizon_ = kForever;
  TraceSink* trace_ = nullptr;
  ActorId running_ = -1;
  bool control_with_scheduler_ = true;
  bool in_run_ = false;
  bool stopping_ = false;
  std::uint64_t switches_ = 0;
  std::uint64_t timer_fires_ = 0;
  std::uint64_t notifies_ = 0;
  std::uint64_t noop_notifies_ = 0;
  std::uint64_t direct_handoffs_ = 0;
  std::uint64_t scheduler_rounds_ = 0;
  std::size_t live_non_daemons_ = 0;
  std::exception_ptr first_error_;
  std::exception_ptr engine_error_;
};

}  // namespace mad::sim
