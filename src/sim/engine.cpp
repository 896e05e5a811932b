#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "sim/condition.hpp"
#include "sim/engine_internal.hpp"
#include "sim/trace.hpp"
#include "util/log.hpp"
#include "util/panic.hpp"

namespace mad::sim {

namespace {

struct TlsActor {
  Engine* engine = nullptr;
  ActorId id = -1;
};

thread_local TlsActor t_current;

}  // namespace

Engine::Engine() = default;

Engine::~Engine() {
  std::unique_lock lock(mutex_);
  stopping_ = true;
  // One actor at a time: a never-dispatched actor destroys its closure on
  // release, and two closures must not be destroyed concurrently.
  for (auto& a : actors_) {
    if (!a->started && a->status != Status::Finished) {
      // Its worker is parked waiting for the first dispatch; releasing it
      // with stopping_ set makes the worker skip the body entirely.
      Worker* w = a->worker;
      lock.unlock();
      w->gate.open();
      lock.lock();
      sched_cv_.wait(lock, [&a] { return a->status == Status::Finished; });
    }
  }
}

Engine::Worker::List& Engine::Worker::list() {
  static List* const list = new List;
  return *list;
}

Engine::Worker* Engine::take_worker_locked() {
  Worker::List& list = Worker::list();
  std::lock_guard parked(list.mutex);
  if (Worker* w = list.top; w != nullptr) {
    list.top = w->next_parked;
    return w;
  }
  auto w = std::make_unique<Worker>();
  std::thread(worker_main, std::ref(*w)).detach();
  return w.release();
}

void Engine::worker_main(Worker& w) {
  for (;;) {
    w.gate.wait();
    // Unlocked reads are safe here: the gate's release/acquire edge orders
    // everything the waker wrote, and nothing else runs until we block.
    Engine& e = *w.engine;
    ActorState* a = w.actor;
    t_current = {&e, a->id};
    std::exception_ptr error;
    // Shutdown (or engine tear-down) before the actor ever ran skips the
    // body; the actor then hands control onward like any finishing one.
    if (!e.stopping_ || a->started) {
      a->started = true;
      try {
        a->body();
      } catch (const StopSimulation&) {
        // normal shutdown unwinding
      } catch (...) {
        error = std::current_exception();
      }
    }
    // Destroy the closure now, while this actor still holds the run token
    // and outside the engine mutex: its captures may reference channels
    // and readers that the simulation's owner destroys right after run()
    // returns, before ~Engine would otherwise get to them.
    a->body = nullptr;
    std::unique_lock lock(e.mutex_);
    ActorState* next = e.finish_locked(*a, error);
    a->worker = nullptr;
    w.actor = nullptr;
    Worker::List& list = Worker::list();
    std::unique_lock parked(list.mutex);
    w.next_parked = std::exchange(list.top, &w);
    parked.unlock();
    // From here on the engine may be destroyed; only `next` (which cannot
    // run before its gate opens) keeps it alive.
    lock.unlock();
    t_current = {};
    if (next != nullptr) {
      next->worker->gate.open();
    }
  }
}

ActorHandle Engine::spawn(std::string name, std::function<void()> body,
                          bool daemon) {
  std::unique_lock lock(mutex_);
  MAD_ASSERT(!stopping_, "spawn after shutdown");
  // Before the actor is registered: if no thread can be started, the
  // std::system_error reaches the caller and leaves no actor that could
  // never run.
  Worker* w = take_worker_locked();
  w->engine = this;
  const ActorId id = static_cast<ActorId>(actors_.size());
  auto state = std::make_unique<ActorState>();
  ActorState* a = state.get();
  a->id = id;
  a->name = std::move(name);
  a->daemon = daemon;
  a->body = std::move(body);
  a->worker = w;
  w->actor = a;
  actors_.push_back(std::move(state));
  if (!daemon) {
    ++live_non_daemons_;
  }
  // Newly spawned actors start at the back of the ready queue, at the
  // current virtual instant.
  a->status = Status::Ready;
  ready_.push_back(id);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->instant(a->name, now_, "actor.spawn");
  }
  return ActorHandle(id);
}

Engine* Engine::current() { return t_current.engine; }

Engine::Stats Engine::stats() const {
  std::unique_lock lock(mutex_);
  Stats s;
  s.switches = switches_;
  s.timer_fires = timer_fires_;
  s.notifies = notifies_;
  s.noop_notifies = noop_notifies_;
  s.direct_handoffs = direct_handoffs_;
  s.scheduler_rounds = scheduler_rounds_;
  return s;
}

std::string Engine::current_actor_name() const {
  std::unique_lock lock(mutex_);
  if (running_ < 0) {
    return "<none>";
  }
  return actors_[static_cast<std::size_t>(running_)]->name;
}

ActorId Engine::current_actor_id() const {
  std::unique_lock lock(mutex_);
  return running_;
}

Engine::ActorState& Engine::self() {
  MAD_ASSERT(t_current.engine == this && t_current.id >= 0,
             "blocking call from outside an actor of this engine");
  return *actors_[static_cast<std::size_t>(t_current.id)];
}

Engine::ActorState& Engine::actor(ActorId id) {
  MAD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < actors_.size(),
             "bad actor id");
  return *actors_[static_cast<std::size_t>(id)];
}

void Engine::make_ready(ActorState& a, WakeReason reason) {
  MAD_ASSERT(a.status == Status::Blocked, "make_ready on non-blocked actor");
  cancel_timer(a);
  if (a.waiting_cond != nullptr) {
    auto& waiters = a.waiting_cond->waiters_;
    waiters.erase(std::find(waiters.begin(), waiters.end(), a.id));
    a.waiting_cond = nullptr;
  }
  a.status = Status::Ready;
  a.wake_reason = reason;
  ready_.push_back(a.id);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->instant(a.name, now_, "actor.wake",
                    reason == WakeReason::Timeout ? "reason=timeout"
                                                  : "reason=notified");
  }
}

void Engine::arm_timer(ActorState& a, Time deadline) {
  MAD_ASSERT(!a.timer_armed, "timer already armed");
  a.timer_armed = true;
  a.timer_deadline = deadline;
  timers_.arm(deadline, a.id);
}

void Engine::cancel_timer(ActorState& a) {
  if (a.timer_armed) {
    timers_.cancel(a.id);
    a.timer_armed = false;
  }
}

void Engine::request_stop() {
  // Caller holds mutex_.
  if (stopping_) {
    return;
  }
  stopping_ = true;
  for (auto& a : actors_) {
    if (a->status == Status::Blocked) {
      make_ready(*a, WakeReason::Notified);
    }
  }
  MAD_ASSERT(timers_.empty(), "timers survive shutdown");
}

WakeReason Engine::park() {
  // Caller holds mutex_ and has already queued this actor (ready queue,
  // condition waiters and/or timer queue) with status Blocked or Ready.
  // Returns WITHOUT the mutex: the gate's release/acquire edge makes the
  // waker's writes (wake_reason, stopping_, now_) readable lock-free, and
  // only one actor runs at a time, so nothing mutates them under us.
  std::unique_lock lock(mutex_, std::adopt_lock);
  ActorState& a = self();
  // Yields park as Ready; only a true wait (sleep, condition) is a block.
  if (trace_ != nullptr && trace_->enabled() &&
      a.status == Status::Blocked) {
    trace_->instant(a.name, now_, "actor.block");
  }
  ActorState* next = hand_off_locked(/*from_actor=*/true);
  lock.unlock();
  if (next == &a) {
    // Self-handoff (e.g. our own timer was the next event): we already
    // hold the run permission, so skip both futex syscalls.
    return a.wake_reason;
  }
  if (next != nullptr) {
    next->worker->gate.open();
  }
  a.worker->gate.wait();
  return a.wake_reason;
}

Engine::ActorState* Engine::hand_off_locked(bool from_actor) {
  // Caller holds mutex_ and no actor is logically running: the caller is
  // either a parking/finishing actor (whose frame no longer counts as
  // running) or the run() thread. Batch every scheduler decision — timer
  // expiry, clock advance, wake — under this single lock hold, then
  // elect exactly one thread: the next actor (direct handoff, woken by
  // the caller once it drops the lock) or run().
  if (live_non_daemons_ == 0 && !stopping_) {
    request_stop();
  }
  for (;;) {
    if (!ready_.empty()) {
      const ActorId id = ready_.front();
      ready_.pop_front();
      ActorState& next = actor(id);
      MAD_ASSERT(next.status == Status::Ready, "dispatch of non-ready actor");
      running_ = id;
      next.status = Status::Running;
      ++switches_;
      if (from_actor) {
        ++direct_handoffs_;
      }
      return &next;
    }
    if (!timers_.empty()) {
      const TimerQueue::Entry e = timers_.pop_min();
      ActorState& ta = actor(e.id);
      MAD_ASSERT(ta.timer_armed, "fired timer for an unarmed actor");
      ta.timer_armed = false;  // consumed: make_ready must not re-cancel
      if (e.deadline > horizon_ && !stopping_) {
        if (!engine_error_) {
          engine_error_ = std::make_exception_ptr(std::runtime_error(
              "virtual time horizon exceeded (possible runaway simulation)"));
        }
        request_stop();
        continue;
      }
      MAD_ASSERT(e.deadline >= now_, "time went backwards");
      now_ = e.deadline;
      ++timer_fires_;
      make_ready(ta, WakeReason::Timeout);
      continue;
    }
    // Nothing runnable anywhere: give control to run() for termination or
    // deadlock handling.
    running_ = -1;
    control_with_scheduler_ = true;
    ++scheduler_rounds_;
    sched_cv_.notify_one();
    return nullptr;
  }
}

Engine::ActorState* Engine::finish_locked(ActorState& a,
                                          std::exception_ptr error) {
  // Caller (the actor's own trampoline) holds mutex_.
  a.status = Status::Finished;
  if (!a.daemon) {
    --live_non_daemons_;
  }
  if (error && !first_error_) {
    first_error_ = error;
    request_stop();
  }
  if (in_run_) {
    return hand_off_locked(/*from_actor=*/true);
  }
  // Engine tear-down without run(): nobody is waiting for a handoff.
  control_with_scheduler_ = true;
  sched_cv_.notify_one();
  return nullptr;
}

void Engine::throw_deadlock() {
  // Caller holds mutex_; collects diagnostics, transitions to shutdown.
  std::ostringstream os;
  os << "virtual-time deadlock at t=" << now_ << "ns; blocked actors:";
  for (const auto& a : actors_) {
    if (a->status == Status::Blocked) {
      os << "\n  - " << a->name << (a->daemon ? " [daemon]" : "")
         << " waiting on "
         << (a->waiting_cond != nullptr ? a->waiting_cond->name()
                                        : std::string("<sleep>"));
    }
  }
  throw DeadlockError(os.str());
}

void Engine::run() {
  std::unique_lock lock(mutex_);
  MAD_ASSERT(!in_run_, "Engine::run is not reentrant");
  MAD_ASSERT(t_current.engine == nullptr, "Engine::run from an actor");
  in_run_ = true;

  // run() only seeds execution and adjudicates the "nothing runnable"
  // states (termination, deadlock). Actor-to-actor switches are direct
  // handoffs inside park()/finish_locked() and never wake this thread.
  for (;;) {
    control_with_scheduler_ = false;
    ActorState* next = hand_off_locked(/*from_actor=*/false);
    if (next != nullptr) {
      lock.unlock();
      next->worker->gate.open();
      lock.lock();
    }
    if (!control_with_scheduler_) {
      // An actor chain is running; sleep until it drains.
      sched_cv_.wait(lock, [this] { return control_with_scheduler_; });
    }
    // Control is back: no ready actor, no pending timer.
    const bool all_finished =
        std::all_of(actors_.begin(), actors_.end(), [](const auto& a) {
          return a->status == Status::Finished;
        });
    if (all_finished) {
      break;
    }
    if (!stopping_) {
      try {
        throw_deadlock();
      } catch (...) {
        engine_error_ = std::current_exception();
        request_stop();
        continue;
      }
    } else {
      // Shutdown was requested and everything woken, yet some actor is
      // blocked again: that actor ignored StopSimulation.
      MAD_PANIC("actor re-blocked during shutdown");
    }
  }

  in_run_ = false;
  lock.unlock();
  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
  if (engine_error_) {
    std::rethrow_exception(engine_error_);
  }
}

void Engine::sleep_for(Time duration) {
  MAD_ASSERT(duration >= 0, "negative sleep");
  sleep_until(now_ + duration);
}

void Engine::sleep_until(Time deadline) {
  std::unique_lock lock(mutex_);
  ActorState& a = self();
  if (stopping_) {
    lock.unlock();
    throw StopSimulation{};
  }
  if (deadline <= now_) {
    return;
  }
  arm_timer(a, deadline);
  a.status = Status::Blocked;
  lock.release();
  park();  // returns without the mutex
  if (stopping_) {
    throw StopSimulation{};
  }
}

void Engine::yield() {
  std::unique_lock lock(mutex_);
  ActorState& a = self();
  if (stopping_) {
    lock.unlock();
    throw StopSimulation{};
  }
  a.status = Status::Ready;
  ready_.push_back(a.id);
  lock.release();
  park();  // returns without the mutex
  if (stopping_) {
    throw StopSimulation{};
  }
}

}  // namespace mad::sim
