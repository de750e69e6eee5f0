// Coroutine process type for the simulation kernel.
//
// A simulation "process" (an application thread, a commit daemon, a disk
// servicing loop, ...) is a C++20 coroutine returning `Process`. Processes
// are spawned onto a Simulation, which schedules every resumption through
// its event queue — processes never resume each other inline, which keeps
// stack depth bounded and execution order deterministic.
//
//   Process app_thread(Simulation& sim, ClientFs& fs) {
//     co_await sim.delay(SimTime::millis(1));
//     co_await fs.write(...);
//   }
//   ProcRef h = sim.spawn(app_thread(sim, fs));
//   co_await h.join();
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>

#include "sim/arena.hpp"
#include "sim/time.hpp"

namespace redbud::sim {

class Simulation;

namespace detail {

// One suspended awaiter in an intrusive FIFO wait list. The node is a
// member of the awaiter, which lives in the suspended coroutine's frame
// until the coroutine resumes, so waiting allocates nothing.
struct WaitNode {
  std::coroutine_handle<> handle;
  WaitNode* next = nullptr;
};

// Head and tail of a list of WaitNodes, in the order they suspended.
// Simulation::wake_all() schedules and unlinks them all.
struct WaitList {
  WaitNode* head = nullptr;
  WaitNode* tail = nullptr;

  [[nodiscard]] bool empty() const { return head == nullptr; }
  void push(WaitNode* n, std::coroutine_handle<> h) {
    n->handle = h;
    n->next = nullptr;
    if (tail != nullptr) {
      tail->next = n;
    } else {
      head = n;
    }
    tail = n;
  }
  // Unlink the earliest waiter (the list must not be empty).
  WaitNode* pop_front() {
    WaitNode* n = head;
    head = n->next;
    if (head == nullptr) tail = nullptr;
    return n;
  }
};

}  // namespace detail

// Shared completion state, outliving the coroutine frame so that joiners
// holding a ProcRef remain valid after the process finishes. Allocated
// from the thread's FrameArena.
struct ProcessState {
  Simulation* sim = nullptr;
  bool done = false;
  std::exception_ptr error;
  detail::WaitList joiners;
};

// The coroutine task type. Move-only owner of the (not yet spawned)
// coroutine frame; Simulation::spawn() consumes it.
class [[nodiscard]] Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(Handle h) noexcept;
    void await_resume() const noexcept {}
  };

  struct promise_type {
    std::shared_ptr<ProcessState> state =
        std::allocate_shared<ProcessState>(ArenaAllocator<ProcessState>{});
    // Position in the kernel's live-frame table; maintained by Simulation
    // so retirement is a swap-pop instead of a linear scan.
    std::uint32_t live_index = 0;

    // Coroutine frames come from the thread-local recycling arena.
    static void* operator new(std::size_t bytes) {
      return detail::FrameArena::local().allocate(bytes);
    }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      detail::FrameArena::local().deallocate(p, bytes);
    }

    Process get_return_object() {
      return Process(Handle::from_promise(*this), state);
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      state->error = std::current_exception();
    }
  };

  Process(Process&& o) noexcept : handle_(o.handle_), state_(std::move(o.state_)) {
    o.handle_ = nullptr;
  }
  Process& operator=(Process&&) = delete;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() {
    if (handle_) handle_.destroy();
  }

 private:
  friend class Simulation;
  Process(Handle h, std::shared_ptr<ProcessState> s)
      : handle_(h), state_(std::move(s)) {}

  Handle handle_;
  std::shared_ptr<ProcessState> state_;
};

// Lightweight, copyable reference to a spawned process.
class ProcRef {
 public:
  ProcRef() = default;
  explicit ProcRef(std::shared_ptr<ProcessState> s) : state_(std::move(s)) {}

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] bool done() const { return state_ && state_->done; }

  // Awaitable: suspends until the process completes; rethrows the process's
  // uncaught exception, if any.
  struct JoinAwaiter {
    std::shared_ptr<ProcessState> state;
    detail::WaitNode node{};
    bool await_ready() const noexcept { return state->done; }
    void await_suspend(std::coroutine_handle<> h) {
      state->joiners.push(&node, h);
    }
    void await_resume() const {
      if (state->error) std::rethrow_exception(state->error);
    }
  };
  [[nodiscard]] JoinAwaiter join() const { return JoinAwaiter{state_}; }

 private:
  std::shared_ptr<ProcessState> state_;
};

}  // namespace redbud::sim
